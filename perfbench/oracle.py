"""Independent checks of job results, using only what the generator knows.

The oracle never calls the package under test. It compares results with
the generator's exact descriptions and re-evaluates every certificate with
its own max-of-functionals norm. ``check`` returns None when the result is
right and a one-line reason otherwise.
"""

from fractions import Fraction

from inputs import Ball, dot, mat_inv, mat_vec, rank


def _same_ball(space, ball: Ball) -> bool:
    return (
        tuple(f.coeffs for f in space.hrep) == ball.H
        and tuple(v.coords for v in space.vrep) == ball.V
    )


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def check(job, result) -> str | None:
    exp = job.expect
    if job.op == "certify":
        return _check_certify(job.source, result, exp)
    if job.op == "parse" or job.op.startswith("sum-"):
        return None if _same_ball(result, exp["ball"]) else "space differs from the generator's H/V"
    return _check_map(result, exp)


def _check_certify(src: str, result, exp) -> str | None:
    space, cl, t = result
    ball: Ball = exp["ball"]
    if not _same_ball(space, ball):
        return "space differs from the generator's H/V"
    # CL is invariant under linear isomorphism: the source decides it.
    if cl.is_cl != exp["cl"]:
        return f"CL verdict {cl.is_cl}, source {src} says {exp['cl']}"
    # Default candidates are the facet barycenters: one smooth point per facet.
    stars = []
    for c in t.candidates:
        c = tuple(c.coords)
        active = [f for f in ball.H if dot(f, c) == 1]
        if ball.norm(c) != 1 or len(active) != 1:
            return f"candidate {c} is not a smooth sphere point"
        stars.append(active[0])
    if sorted(stars) != list(ball.H):
        return "candidate stars do not cover the facets once each"
    if len(t.condition_iii) != len(ball.V) * len(stars):
        return f"{len(t.condition_iii)} condition-(iii) records, expected {len(ball.V) * len(stars)}"
    all_two = True
    for rec in t.condition_iii:
        v, yp, ym = tuple(rec.vertex.coords), tuple(rec.witness_plus.coords), tuple(rec.witness_minus.coords)
        f = stars[rec.candidate_index]
        if v not in ball.V:
            return f"record vertex {v} is not a ball vertex"
        if ball.norm(yp) != 1 or dot(f, yp) != 1:
            return f"witness y+ {yp} is not in the star facet"
        if ball.norm(ym) != 1 or dot(f, ym) != -1:
            return f"witness y- {ym} is not in the opposite facet"
        value = ball.norm(_sub(v, yp)) + ball.norm(_sub(v, ym))
        if value != rec.value or value < 2:
            return f"record value {rec.value} re-evaluates to {value}"
        all_two = all_two and value == 2
    # A witnessed value of 2 meets the lower bound the star functional
    # gives, so it is exact; every source here has the T-property.
    if not all_two or not t.holds:
        return f"T verdict {t.holds}, witnessed values all 2: {all_two}"
    return None


def _phi(exp, p):
    """The generator's map at a domain sphere point, affine on each facet."""
    dom: Ball = exp["domain"]
    f = next(f for f in dom.H if dot(f, p) == 1)
    basis = []
    for v in dom.V:
        if dot(f, v) == 1 and rank(basis + [v]) == len(basis) + 1:
            basis.append(v)
    cols = tuple(zip(*basis))
    alpha = mat_vec(mat_inv(cols), p)
    images = [exp["phi"][v] for v in basis]
    return tuple(sum((a * w[i] for a, w in zip(alpha, images)), Fraction(0)) for i in range(len(p)))


def _check_map(result, exp) -> str | None:
    report, cert = result
    if exp["isometry"]:
        if not report.passed or cert is None:
            return f"true isometry rejected: {report.reason}"
        if cert.matrix != exp["matrix"]:
            return "extension matrix differs from T*S"
        return None
    if report.passed:
        return "non-isometry accepted"
    ce = report.counterexample
    if report.malformed or ce is None or len(ce) != 4:
        return f"rejection without a distance counterexample: {report.reason}"
    p, q, lhs, rhs = tuple(ce[0].coords), tuple(ce[1].coords), ce[2], ce[3]
    dom, cod = exp["domain"], exp["codomain"]
    if dom.norm(p) != 1 or dom.norm(q) != 1:
        return "counterexample points are not on the domain sphere"
    d_dom = dom.norm(_sub(p, q))
    d_cod = cod.norm(_sub(_phi(exp, p), _phi(exp, q)))
    if (d_dom, d_cod) != (lhs, rhs) or d_dom == d_cod:
        return f"counterexample distances {lhs}, {rhs} re-evaluate to {d_dom}, {d_cod}"
    return None
