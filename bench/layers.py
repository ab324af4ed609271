"""The layers the benchmark times, the sites it wraps and the metrics it derives.

Layers are named after the qdcascade modules. Each site is the module
attribute that the calling code resolves at call time, so replacing it
from outside catches every call. ``EXPECTED`` says on which workloads
each site must be hit; a site that is absent (renamed or removed), or
expected but never hit, makes every metric that reads it missing, never
0. A metric of a layer that a workload does not use by design reads 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from tracer import Site

CLOSED, G2 = "closed_loop", "g2_recapture"


def _run_pair(args, result):
    return {"pulses": args["n_pulses"], "events": sum(len(s) for s in result)}


def _export(args, result):
    return {"records": len(args["stream"]), "bytes": os.path.getsize(args["path"])}


def _import(args, result):
    return {"records": len(result), "bytes": os.path.getsize(args["path"])}


def _correlate(args, result):
    return {"events_in": len(args["stream_a"]) + len(args["stream_b"]),
            "pairs": int(result.total())}


def _fit(args, result):
    return {"failed": fit_failed(result)}


def _mle(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged),
            "key": tuple(r.counts for r in args["input"].records)}


def _binned(args, result):
    return {"bins": len(result.bins),
            "nonconverged": sum(not b.result.converged for b in result.bins),
            "nll_sum": float(sum(b.result.neg_log_likelihood for b in result.bins))}


def _written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def fit_failed(fit):
    """A fit fails when it did not converge or its parameters are unphysical."""
    from qdcascade.errors import ValidationError
    from qdcascade.fitting import RecaptureModel

    if not fit.converged:
        return True
    if fit.model == "recapture":
        try:
            RecaptureModel.from_fit(fit)
        except ValidationError:
            return True
    return False


P, T, S, C, F, IO = ("qdcascade.pipeline", "qdcascade.tomography", "qdcascade.simulate",
                     "qdcascade.correlations", "qdcascade.fitting", "qdcascade.io")

# (site, workloads on which it must be hit)
SITES = (
    (Site(P, "cmd_simulate", "pipeline.cmd_simulate"), {CLOSED}),
    (Site(P, "cmd_tomo", "pipeline.cmd_tomo"), {CLOSED}),
    (Site(P, "simulate_projection_run", "simulate.run", _run_pair), {CLOSED}),
    (Site(S, "simulate_autocorrelation_run", "simulate.run", _run_pair), {G2}),
    (Site(P, "export_stream", "streams.export", _export), {CLOSED}),
    (Site(P, "import_stream", "streams.import", _import), {CLOSED}),
    (Site(P, "cross_correlate", "correlations.cross_correlate", _correlate), {CLOSED}),
    (Site(C, "cross_correlate", "correlations.cross_correlate", _correlate), {G2}),
    (Site(C, "g2_zero", "correlations.g2_zero"), {G2}),
    (Site(P, "time_binned_tomography", "tomography.time_binned", _binned), {CLOSED}),
    (Site(T, "mle_reconstruct", "tomography.mle", _mle), {CLOSED}),
    (Site(T, "_objective_and_grad", "objective_evals", counter=True), {CLOSED}),
    (Site(P, "fit_model", "fitting.fit_model", _fit), {CLOSED}),
    (Site(C, "fit_model", "fitting.fit_model", _fit), {G2}),
    (Site(F, "fit_model", "fitting.fit_model", _fit), {G2}),
    (Site(IO, "dump_json", "io.dump_json", _written), {CLOSED}),
    (Site(IO, "write_histogram_csv", "io.write_histogram_csv", _written), {CLOSED}),
)

ALL_SITES = tuple(site for site, _ in SITES)
EXPECTED = {site.key: workloads for site, workloads in SITES}

#: Sites the untraced run wraps without a clock, to count failed operations.
ACCOUNTING_SITES = tuple(s for s in ALL_SITES if s.name == "tomography.time_binned")


def _sites(*names):
    return tuple(s.key for s in ALL_SITES if s.name in names)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    sites: tuple
    compute: object


def _sum(tr, name, attr=None):
    spans = tr.named(name)
    if attr is None:
        return float(sum(s.duration for s in spans))
    return sum(s.attrs.get(attr, 0) for s in spans)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def _mle_ms(tr, q):
    d = [1e3 * s.duration for s in tr.named("tomography.mle")]
    return float(np.percentile(d, q)) if d else 0.0


def _unique_frac(tr):
    keys = [s.attrs["key"] for s in tr.named("tomography.mle")]
    return len(set(keys)) / len(keys) if keys else 0.0


def _io_busy(tr):
    return float(sum(s.duration for s in tr.spans if s.name.startswith("io.")))


def _io_bytes(tr):
    return sum(s.attrs.get("bytes", 0) for s in tr.spans
               if s.name in ("io.dump_json", "io.write_histogram_csv"))


def _fits_failed(tr):
    return sum(1 for s in tr.named("fitting.fit_model")
               if s.attrs.get("failed") or "error" in s.attrs)


SIM = _sites("simulate.run")
STR_EX, STR_IM = _sites("streams.export"), _sites("streams.import")
COR, G2Z = _sites("correlations.cross_correlate"), _sites("correlations.g2_zero")
MLE, OBJ = _sites("tomography.mle"), _sites("objective_evals")
BIN = _sites("tomography.time_binned")
FIT = _sites("fitting.fit_model")
IOS = _sites("io.dump_json", "io.write_histogram_csv")
CMDS = _sites("pipeline.cmd_simulate", "pipeline.cmd_tomo")

PER_LAYER = (
    Metric("simulate.calls", "count", "lower", SIM,
           lambda tr: len(tr.named("simulate.run"))),
    Metric("simulate.busy_s", "s", "lower", SIM,
           lambda tr: _sum(tr, "simulate.run")),
    Metric("simulate.pulses_per_s", "1/s", "higher", SIM,
           lambda tr: _rate(_sum(tr, "simulate.run", "pulses"), _sum(tr, "simulate.run"))),
    Metric("simulate.events_out", "count", "higher", SIM,
           lambda tr: _sum(tr, "simulate.run", "events")),
    Metric("streams.export_s", "s", "lower", STR_EX,
           lambda tr: _sum(tr, "streams.export")),
    Metric("streams.import_s", "s", "lower", STR_IM,
           lambda tr: _sum(tr, "streams.import")),
    Metric("streams.records", "count", "higher", STR_EX,
           lambda tr: _sum(tr, "streams.export", "records")),
    Metric("streams.bytes", "B", "lower", STR_EX,
           lambda tr: _sum(tr, "streams.export", "bytes")),
    Metric("correlations.calls", "count", "lower", COR,
           lambda tr: len(tr.named("correlations.cross_correlate"))),
    Metric("correlations.busy_s", "s", "lower", COR,
           lambda tr: _sum(tr, "correlations.cross_correlate")),
    Metric("correlations.events_in", "count", "higher", COR,
           lambda tr: _sum(tr, "correlations.cross_correlate", "events_in")),
    Metric("correlations.pairs", "count", "higher", COR,
           lambda tr: _sum(tr, "correlations.cross_correlate", "pairs")),
    Metric("correlations.pairs_per_s", "1/s", "higher", COR,
           lambda tr: _rate(_sum(tr, "correlations.cross_correlate", "pairs"),
                            _sum(tr, "correlations.cross_correlate"))),
    Metric("correlations.g2_self_s", "s", "lower", G2Z,
           lambda tr: float(tr.self_time("correlations.g2_zero"))),
    Metric("tomography.mle_calls", "count", "lower", MLE,
           lambda tr: len(tr.named("tomography.mle"))),
    Metric("tomography.mle_busy_s", "s", "lower", MLE,
           lambda tr: _sum(tr, "tomography.mle")),
    Metric("tomography.mle_p50_ms", "ms", "lower", MLE,
           lambda tr: _mle_ms(tr, 50)),
    Metric("tomography.mle_p80_ms", "ms", "lower", MLE,
           lambda tr: _mle_ms(tr, 80)),
    Metric("tomography.mle_iters", "count", "lower", MLE,
           lambda tr: _sum(tr, "tomography.mle", "iterations")),
    Metric("tomography.mle_nonconverged", "count", "lower", MLE,
           lambda tr: sum(not s.attrs["converged"] for s in tr.named("tomography.mle"))),
    Metric("tomography.mle_unique_frac", "ratio", "higher", MLE, _unique_frac),
    Metric("tomography.objective_evals", "count", "lower", MLE + OBJ,
           lambda tr: _sum(tr, "tomography.mle", "objective_evals")),
    Metric("tomography.nll_sum", "nll", "lower", BIN,
           lambda tr: float(_sum(tr, "tomography.time_binned", "nll_sum"))),
    Metric("fitting.calls", "count", "lower", FIT,
           lambda tr: len(tr.named("fitting.fit_model"))),
    Metric("fitting.busy_s", "s", "lower", FIT,
           lambda tr: _sum(tr, "fitting.fit_model")),
    Metric("fitting.failed", "count", "lower", FIT, _fits_failed),
    Metric("io.busy_s", "s", "lower", IOS, _io_busy),
    Metric("io.bytes_written", "B", "lower", IOS, _io_bytes),
    Metric("pipeline.self_s", "s", "lower", CMDS,
           lambda tr: tr.self_times().get("pipeline", 0.0)),
)


def unusable_sites(tracer, workload):
    """Sites whose metrics cannot be trusted on this workload, with the reason."""
    bad = {key: "absent" for key in tracer.missing}
    bad.update({key: "raised in the benchmark's reader" for key in tracer.broken})
    for key, hits in tracer.hits.items():
        if hits == 0 and workload in EXPECTED[key]:
            bad[key] = "never called"
    return bad


def layer_metrics(tracer, workload):
    """Every per-layer metric of one traced repetition; unusable ones left out."""
    bad = unusable_sites(tracer, workload)
    return {m.name: m.compute(tracer) for m in PER_LAYER
            if not any(key in bad for key in m.sites)}
