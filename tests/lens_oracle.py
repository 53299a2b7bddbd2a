"""The sewing-matrix search that lens recognition used before its closed
form, kept as a test oracle.

_search_witness scans sewing matrices with left column (q, +-p), q
ascending, until one reproduces the symbol; its cost grows linearly with
p. It takes the obstruction from _candidate_bs, so when two obstructions
give the same |H1| it can settle on the wrong one, e.g. L(8,1) for
(O,o,0 | 1, (4,1), (4,1)), which is L(8,3). Compare against it only on
symbols where exactly one obstruction gives |H1| = p.
"""

from math import gcd

from seifert import (ClassPart, CrossingPair, GluingMatrix, ReducedFraction,
                     SeifertSymbol, ZeroDenominator, crossing_invariants,
                     fibering_transform, normalize_symbol)

_S2 = ClassPart("O", "o", 0)


def _candidate_bs(pairs, p):
    """Obstructions b with |H1| = p for the given pairs, ascending."""
    total = 0
    prod = 1
    for q in pairs:
        prod *= q.mu
    for i, q in enumerate(pairs):
        term = q.beta
        for j, w in enumerate(pairs):
            if j != i:
                term *= w.mu
        total += term
    out = set()
    for t in (total - p, total + p):
        if t % prod == 0:
            out.add(t // prod)
    return sorted(out)


def _search_witness(s: SeifertSymbol, p: int):
    """Deterministic bounded search for a sewing matrix producing s.

    Scans matrices with left column (q, +-p), q ascending, and for each
    solvable right column checks whether the transform of some fibering
    drawn from the symbol's own pairs reproduces the full symbol. All
    entries stay within p + mu1*mu2 + |b|*mu1*mu2. Returns
    (q, GluingMatrix) or None.
    """
    pairs = s.pairs
    b = s.obstruction
    mu1 = pairs[0].mu if len(pairs) >= 1 else 1
    mu2 = pairs[1].mu if len(pairs) >= 2 else 1
    bound = p + mu1 * mu2 + abs(b) * mu1 * mu2

    # ways to assign one pair to the input fibering and one to the image
    zero = ReducedFraction(0, 1)
    assignments = []
    if len(pairs) == 2:
        f0 = ReducedFraction(pow(pairs[0].beta, -1, pairs[0].mu), pairs[0].mu)
        f1 = ReducedFraction(pow(pairs[1].beta, -1, pairs[1].mu), pairs[1].mu)
        assignments = [(f0, pairs[1].mu), (f1, pairs[0].mu)]
    elif len(pairs) == 1:
        f0 = ReducedFraction(pow(pairs[0].beta, -1, pairs[0].mu), pairs[0].mu)
        assignments = [(f0, 1), (zero, pairs[0].mu)]
    else:
        assignments = [(zero, 1)]

    if p == 0:
        qs = [1]
    elif p == 1:
        qs = [0, 1]
    else:
        qs = [q for q in range(p) if gcd(q, p) == 1]
    pps = [0] if p == 0 else [p, -p]

    for q in qs:
        for pp in pps:
            for det in (1, -1):
                for f, mu_img in assignments:
                    nu, mu = f.num, f.den
                    for tgt in (mu_img, -mu_img):
                        # second index: pp*nu + s*mu = tgt
                        if pp == 0:
                            # q = 1, so s = det and r is irrelevant mod mu
                            sv = det
                            if pp * nu + sv * mu != tgt:
                                continue
                            rv = 0
                        else:
                            num = tgt - pp * nu
                            if num % mu != 0:
                                continue
                            sv = num // mu
                            rnum = q * sv - det
                            if rnum % pp != 0:
                                continue
                            rv = rnum // pp
                        if abs(rv) > bound or abs(sv) > bound:
                            continue
                        mat = GluingMatrix(q, rv, pp, sv)
                        try:
                            t1, t2 = fibering_transform(mat, f)
                        except ZeroDenominator:
                            continue
                        cand = []
                        for t in (t1, t2):
                            ci = crossing_invariants(t)
                            if ci.mu >= 2:
                                cand.append(ci)
                        for bc in _candidate_bs(cand, p):
                            trial = normalize_symbol(SeifertSymbol(
                                _S2, 0, 0, bc,
                                tuple(CrossingPair(c.mu, c.beta) for c in cand)))
                            if trial == s:
                                return q, mat
    return None
