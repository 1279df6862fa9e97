"""Self-tests of the benchmark: generator, oracle and tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import polysphere  # noqa: E402
from polysphere import lp, properties, space  # noqa: E402
from tracer import Tracer  # noqa: E402


def _first(workload, op, src, seed=3):
    stream = inputs.JobStream(workload, seed)
    for _ in range(4):
        for job in stream.round():
            if job.op == op and job.source == src:
                return job
    raise AssertionError(f"no {op} job for {src}")


def _fingerprint(stream_jobs):
    return [(j.op, j.label, j.texts) for j in stream_jobs]


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a, b, c = (inputs.JobStream(workload, s) for s in (7, 7, 8))
    first = _fingerprint([a.warmup()] + a.round())
    assert first == _fingerprint([b.warmup()] + b.round())
    assert first != _fingerprint([c.warmup()] + c.round())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_no_two_jobs_of_a_run_share_a_space(workload):
    stream = inputs.JobStream(workload, 11)
    spaces = []
    for job in [stream.warmup()] + stream.round() + stream.round():
        ball = job.expect.get("ball") or job.expect["codomain"]
        if job.op.startswith("sum-"):
            continue  # the sum's file side is the fresh part
        spaces.append(ball.H)
    assert len(spaces) == len(set(spaces))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_fresh_inputs_never_run_out(workload):
    # Far more rounds than a run needs, even with jobs several times
    # faster: the dim-2 classes use up their two-shear maps long before.
    stream = inputs.JobStream(workload, 13)
    stream.warmup()
    for _ in range(100):
        stream.round()
    assert stream.count == 1 + 100 * len(inputs.ROUNDS[workload])
    assert any(extra > 0 for extra in stream.extra_shears.values())


def test_hexagon_group_preserves_the_hexagon():
    hexagon = inputs.hex_ball()
    assert len(set(inputs.HEX_GROUP)) == 12
    for s in inputs.HEX_GROUP:
        assert sorted(inputs.mat_vec(s, v) for v in hexagon.V) == list(hexagon.V)


def test_moved_hexagon_keeps_the_face_lattice():
    for b in inputs.MOVED_B:
        moved = inputs.hex_ball(b)
        assert len(moved.H) == len(moved.V) == 6
        for f in moved.H:
            assert max(inputs.dot(f, v) for v in moved.V) == 1
            assert sum(1 for v in moved.V if inputs.dot(f, v) == 1) == 2


# -- oracle ------------------------------------------------------------------


@pytest.fixture(scope="module")
def certify_job():
    job = _first("certify", "certify", "hex")
    return job, jobs.run(job)


@pytest.fixture(scope="module")
def iso_job():
    job = _first("isometry", "iso", "hex")
    return job, jobs.run(job)


@pytest.fixture(scope="module")
def non_iso_job():
    job = _first("isometry", "non-iso", "hex")
    return job, jobs.run(job)


def test_oracle_accepts_correct_results(certify_job, iso_job, non_iso_job):
    for job, result in (certify_job, iso_job, non_iso_job):
        assert oracle.check(job, result) is None


def test_oracle_rejects_a_wrong_cl_verdict(certify_job):
    job, (sp, cl, t) = certify_job
    wrong = dataclasses.replace(cl, is_cl=not cl.is_cl)
    assert oracle.check(job, (sp, wrong, t)) is not None


def test_oracle_rejects_a_tampered_record_value(certify_job):
    job, (sp, cl, t) = certify_job
    records = list(t.condition_iii)
    records[0] = dataclasses.replace(records[0], value=records[0].value + Fraction(1, 3))
    tampered = dataclasses.replace(t, condition_iii=tuple(records))
    assert oracle.check(job, (sp, cl, tampered)) is not None


def test_oracle_rejects_a_record_witness_off_the_facet(certify_job):
    job, (sp, cl, t) = certify_job
    records = list(t.condition_iii)
    records[0] = dataclasses.replace(records[0], witness_plus=records[0].witness_minus)
    tampered = dataclasses.replace(t, condition_iii=tuple(records))
    assert oracle.check(job, (sp, cl, tampered)) is not None


def test_oracle_rejects_a_wrong_space():
    job = _first("build", "parse", "l1:3")
    other = _first("build", "parse", "linf:3")
    assert oracle.check(job, jobs.run(job)) is None
    assert oracle.check(job, jobs.run(other)) is not None


def test_oracle_rejects_a_wrong_extension_matrix(iso_job):
    job, (report, cert) = iso_job
    m = [list(row) for row in cert.matrix]
    m[0][0] += 1
    wrong = dataclasses.replace(cert, matrix=tuple(tuple(r) for r in m))
    assert oracle.check(job, (report, wrong)) is not None


def test_oracle_rejects_a_rejection_without_a_valid_counterexample(non_iso_job, iso_job):
    job, (report, cert) = non_iso_job
    p, q, lhs, rhs = report.counterexample
    for bad in ((p, q, lhs, lhs), (p, q, rhs, lhs), None):
        assert oracle.check(job, (dataclasses.replace(report, counterexample=bad), cert)) is not None
    malformed = dataclasses.replace(report, malformed=True)
    assert oracle.check(job, (malformed, cert)) is not None
    # Rejecting a true isometry is wrong whatever the counterexample says.
    ijob, _ = iso_job
    assert oracle.check(ijob, (report, None)) is not None


# -- tracer ------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_them():
    original = lp.solve_lp
    with Tracer():
        wrapped = lp.solve_lp
        assert wrapped is not original
        for module in (properties, space, polysphere, polysphere.isometry):
            assert module.solve_lp is wrapped
        assert space.PolyhedralSpace.norm.__wrapped__ is not None
    for module in (lp, properties, space, polysphere, polysphere.isometry):
        assert module.solve_lp is original
    assert not hasattr(space.PolyhedralSpace.norm, "__wrapped__")


def _traced_counts(seed):
    stream = inputs.JobStream("build", seed)
    picked = stream.round()
    picked += [j for j in inputs.JobStream("certify", seed).round() if j.source == "hex"][:2]
    picked += [j for j in inputs.JobStream("isometry", seed).round() if j.source == "hex"]
    tracer = Tracer()
    with tracer:
        for job in picked:
            assert oracle.check(job, tracer.job(job.index, jobs.run, job)) is None
    calls, _ = tracer.layer_totals()
    return calls, tracer.counts, len(picked)


def test_two_traced_passes_give_identical_counts():
    calls, counts, picked = _traced_counts(5)
    again_calls, again_counts, _ = _traced_counts(5)
    assert calls == again_calls
    assert counts == again_counts
    for key in ("space.enumerate_ball_vertices.rows_in", "space.enumerate_ball_vertices.vertices_out",
                "lp.tableau_cells"):
        assert counts[key] > 0
    assert calls["lp.solve_lp"] > 0 and calls["job"] == picked
