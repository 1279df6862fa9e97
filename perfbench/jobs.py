"""The jobs, each what one ``polysphere`` command does, through the public API.

A job starts from the file text the command would read. Space references
resolve the way the command line resolves them: a reference that names one
of the job's files is parsed from its text, any other is a catalog
expression. Package functions are looked up when called, never bound at
import, so the wrappers of a traced run see every call.
"""

from polysphere import catalog, formats, isometry, properties


def _resolver(texts: dict):
    def resolve(ref: str):
        if ref in texts:
            return formats.parse_space_text(texts[ref], name=ref)
        return catalog.resolve(ref)

    return resolve


def run(job):
    """Perform one job and return what the oracle checks."""
    texts = dict(job.texts)
    resolve = _resolver(texts)
    if job.op == "certify":
        # `check-cl` and then `check-t`. The space is parsed once: parsing
        # it twice in one process would let a parse cache show a gain that
        # users, who start one process per command, never see.
        space = resolve(job.refs[0])
        return space, properties.check_cl(space), properties.check_t_property(space)
    if job.op == "parse":
        return resolve(job.refs[0])
    if job.op in ("sum-l1", "sum-linf"):
        # `sum l1|linf A B`
        a, b = (resolve(ref) for ref in job.refs)
        build = catalog.l1_sum if job.op == "sum-l1" else catalog.linf_sum
        return build(a, b)
    # `extend MAP`: verify the map, and extend it when it passes.
    m = formats.parse_map_text(texts[job.refs[0]], resolve)
    report = isometry.verify_isometry(m, seed=0)
    cert = isometry.extend(m, seed=0) if report.passed else None
    return report, cert
