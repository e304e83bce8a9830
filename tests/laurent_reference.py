"""Dict-term arithmetic of integer Laurent polynomials in u and v.

A term map {(a, b): c} means sum c u^a v^b and stores no zero coefficient.
This is the arithmetic that ``qgc.scalars.LaurentBi`` did before it packed
its homogeneous components into integers; the tests check the packed form
against it.
"""


def add(p, q):
    out = dict(p)
    for k, c in q.items():
        c2 = out.get(k, 0) + c
        if c2:
            out[k] = c2
        else:
            out.pop(k, None)
    return out


def neg(p):
    return {k: -c for k, c in p.items()}


def mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            out = add(out, {(a1 + a2, b1 + b2): c1 * c2})
    return out


def shift(p, da, db):
    return {(a + da, b + db): c for (a, b), c in p.items()}


def min_exps(p):
    return min(a for a, _ in p), min(b for _, b in p)


def lead(p):
    """The graded-lex leading exponent: highest total degree, then u."""
    return max(p, key=lambda k: (k[0] + k[1], k[0]))
