"""The symbol parser from before it read the text as tokens, kept as a
test oracle.

_Scanner walks the text one character at a time and skips whitespace
before every token it reads, and take_word probes each keyword character
by character, so that "N , n , I I ," still reads as "N,n,II,".
parse_symbol here must agree with seifert.parse_symbol on every string:
the same value, or the same exception type, message and position.
"""

from math import gcd

from seifert import (ClassPart, CrossingPair, ParseError, SeifertSymbol,
                     ValidityError)

_CLASS_HEADS = ("O,o,", "O,n,", "N,o,", "N,n,I,", "N,n,II,", "N,n,III,")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_take(self, ch):
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def take_int(self, signed=False):
        """An INT, or a SIGNED_INT whose sign whitespace may follow."""
        self._skip_ws()
        start = self.pos
        sign = ""
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            sign = self.text[self.pos]
            self.pos += 1
            self._skip_ws()
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        try:
            return int(sign + self.text[digits:self.pos])
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError(f"integer of {self.pos - digits} digits is too "
                             f"long to convert", start) from None

    def take_word(self, words, what):
        self._skip_ws()
        # Match keywords even when interior whitespace splits them.
        for w in sorted(words, key=len, reverse=True):
            probe = self.pos
            matched = True
            for ch in w:
                while probe < len(self.text) and self.text[probe].isspace():
                    probe += 1
                if probe < len(self.text) and self.text[probe] == ch:
                    probe += 1
                else:
                    matched = False
                    break
            if matched:
                self.pos = probe
                return w
        raise ParseError(f"expected {what}", self.pos)

    def at_end(self):
        self._skip_ws()
        return self.pos >= len(self.text)


def parse_symbol(text: str) -> SeifertSymbol:
    """Parse symbol text into a valid SeifertSymbol.

    Raises ParseError with the failing position for syntax problems and
    ValidityError for well-formed but meaningless data. Crossing numbers
    are stored modulo their index with the carry moved into the
    obstruction (the data type cannot hold out-of-range values); the full
    normal form still requires normalize_symbol.
    """
    sc = _Scanner(text)
    sc.expect("(")
    head = sc.take_word(_CLASS_HEADS, "a class like O,o, or N,n,I,")
    parts = head.split(",")
    total, orbit = parts[0], parts[1]
    subtype = parts[2] if len(parts) == 4 else None
    genus = sc.take_int()
    boundary_tori = 0
    boundary_klein = 0
    if sc.try_take(";"):
        sc.take_word(("m=",), "m=")
        boundary_tori = sc.take_int()
        if sc.try_take(","):
            sc.take_word(("kb=",), "kb=")
            boundary_klein = sc.take_int()
    sc.expect("|")
    bounded = boundary_tori > 0 or boundary_klein > 0
    obstruction: object
    tail = sc.pos
    # "-" is the bounded marker unless a digit follows it, as the sign of b
    if sc.try_take("-") and not "0" <= sc.peek() <= "9":
        obstruction = None
        if not bounded:
            raise ValidityError('obstruction "-" is only for bounded symbols')
    else:
        if bounded:
            raise ParseError('bounded symbols start the tail with "-"', sc.pos)
        sc.pos = tail
        if sc.peek() == "(":
            sc.expect("(")
            b = sc.take_int(signed=True)
            sc.expect(",")
            s_count = sc.take_int()
            sc.expect(")")
            obstruction = (b, s_count)
        else:
            obstruction = sc.take_int(signed=True)
    pairs = []
    while sc.try_take(","):
        sc.expect("(")
        mu = sc.take_int(signed=True)
        sc.expect(",")
        beta = sc.take_int(signed=True)
        sc.expect(")")
        if mu < 1:
            raise ValidityError(f"fiber index must be >= 1, got {mu}")
        if gcd(mu, beta) != 1:
            raise ValidityError(f"pair ({mu},{beta}) is not coprime")
        pairs.append((mu, beta))
    sc.expect(")")
    if not sc.at_end():
        raise ParseError("trailing text after the symbol", sc.pos)

    cp = ClassPart(total, orbit, genus, subtype)
    if not bounded and cp.total == "N" and isinstance(obstruction, int):
        obstruction = (obstruction, 0)
    if not bounded and cp.total == "O" and isinstance(obstruction, tuple):
        raise ValidityError("closed orientable symbols take a plain integer b")

    carry = 0
    stored = []
    for mu, beta in pairs:
        t = beta % mu
        carry += (beta - t) // mu
        stored.append(CrossingPair(mu, t))
    stored.sort(key=lambda p: (p.mu, p.beta))
    if bounded:
        obstruction = None
    elif cp.total == "O":
        obstruction = obstruction + carry
    else:
        obstruction = (obstruction[0] + carry, obstruction[1])
    return SeifertSymbol(cp, boundary_tori, boundary_klein, obstruction,
                         tuple(stored))
