"""Span tracing of `suprec` calls from outside the package.

`Tracer.install()` replaces public callables with timing wrappers wherever
the `suprec` modules look them up (module globals such as `substream` in
`montecarlo`, `spectra` and `cli`, and `SupportDecoder` methods on the
class); `remove()` puts the originals back. No program file is edited.
Names missing from the package are skipped, so the tracer keeps working
after a refactor removes one; its metrics then read 0.

A span's self time is its duration minus that of its direct child spans;
a layer's `self_s` sums the self time of its spans. When a span is entered
while a span of the same name is open (a `SupportDecoder` factorizing its
candidates with `_chol_logdet`), only the outermost one adds to the name's
total, so totals never count time twice. Spans are kept on one stack, so
trace only single-threaded calls (`--threads 1`).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Work counters: each receives the tracer's counts, the call's arguments and
# its result.

def _count_supports(counts, args, kwargs, result):
    counts["model.supports_enumerated"] += len(result)


def _count_decoder(counts, args, kwargs, result):
    counts["decode.decoders_built"] += 1
    counts["decode.factorization_failures"] += len(args[0].failures)


def _count_factor(counts, args, kwargs, result):
    counts["decode.candidates_factorized"] += 1


def _count_batch_scores(counts, args, kwargs, result):
    counts["decode.candidate_scores"] += len(args[0].candidates) * len(args[1])


def _count_trials(counts, args, kwargs, result):
    counts["montecarlo.trials"] += result.trials


# (module, attribute, span name, work counter or None). Attributes of the
# form "Class.method" are wrapped on the class.
SPANS = (
    ("suprec.model", "substream", "model.substream", None),
    ("suprec.model", "field_gaussian", "model.field_gaussian", None),
    ("suprec.model", "sample_gaussian_matrix", "model.sample_matrix", None),
    ("suprec.model", "enumerate_supports", "model.enumerate", _count_supports),
    ("suprec.decode", "SupportDecoder.__init__", "decode.factorize", _count_decoder),
    ("suprec.decode", "_chol_logdet", "decode.factorize", _count_factor),
    ("suprec.decode", "SupportDecoder.decode_index_batch", "decode.score", _count_batch_scores),
    ("suprec.spectra", "covariance", "spectra.covariance", None),
    ("suprec.spectra", "h_eigenvalues", "spectra.h_eig", None),
    ("suprec.spectra", "pair_incoherence", "spectra.pair", None),
    ("suprec.spectra", "matrix_incoherence", "spectra.incoherence", None),
    ("suprec.spectra", "qr_lower_bound_eigs", "spectra.bound_eigs", None),
    ("suprec.spectra", "upper_bound_eigs", "spectra.bound_eigs", None),
    ("suprec.spectra", "spectrum_split", "spectra.split", None),
    ("suprec.bounds", "fano_beta_exact", "bounds.fano_beta", None),
    ("suprec.bounds", "binary_chernoff", "bounds.chernoff", None),
    ("suprec.bounds", "multiple_bound_geometric", "bounds.chernoff", None),
    ("suprec.bounds", "chernoff_mu", "bounds.chernoff", None),
    ("suprec.bounds", "kl_divergence", "bounds.kl", None),
    ("suprec.bounds", "doa_requirements", "bounds.threshold", None),
    ("suprec.bounds", "fano_lower", "bounds.fano", None),
    ("suprec.montecarlo", "run_experiment", "montecarlo.estimate", _count_trials),
    ("suprec.montecarlo", "clopper_pearson", "montecarlo.ci", None),
    ("suprec.cli", "main", "cli.main", None),
)

LAYERS = ("model", "decode", "spectra", "bounds", "montecarlo", "cli")

# Per-layer metric -> (span name, "s" for its total time or "calls").
SPAN_METRICS = {
    "model.substream_calls": ("model.substream", "calls"),
    "model.substream_s": ("model.substream", "s"),
    "model.field_gaussian_calls": ("model.field_gaussian", "calls"),
    "model.field_gaussian_s": ("model.field_gaussian", "s"),
    "model.matrix_draws": ("model.sample_matrix", "calls"),
    "model.sample_matrix_s": ("model.sample_matrix", "s"),
    "model.enumerate_s": ("model.enumerate", "s"),
    "decode.factorize_s": ("decode.factorize", "s"),
    "decode.score_s": ("decode.score", "s"),
    "spectra.covariance_calls": ("spectra.covariance", "calls"),
    "spectra.covariance_s": ("spectra.covariance", "s"),
    "spectra.h_eig_calls": ("spectra.h_eig", "calls"),
    "spectra.h_eig_s": ("spectra.h_eig", "s"),
    "spectra.pair_calls": ("spectra.pair", "calls"),
    "spectra.pair_s": ("spectra.pair", "s"),
    "spectra.incoherence_calls": ("spectra.incoherence", "calls"),
    "spectra.incoherence_s": ("spectra.incoherence", "s"),
    "spectra.bound_eigs_s": ("spectra.bound_eigs", "s"),
    "spectra.split_s": ("spectra.split", "s"),
    "bounds.fano_beta_s": ("bounds.fano_beta", "s"),
    "bounds.chernoff_s": ("bounds.chernoff", "s"),
    "bounds.kl_s": ("bounds.kl", "s"),
    "bounds.threshold_s": ("bounds.threshold", "s"),
    "montecarlo.estimate_s": ("montecarlo.estimate", "s"),
    "montecarlo.ci_s": ("montecarlo.ci", "s"),
    "cli.main_s": ("cli.main", "s"),
}

# Work counts kept by the counters above; bounds.calls counts calls into the
# bounds layer from outside it.
COUNT_METRICS = ("model.supports_enumerated", "decode.decoders_built",
                 "decode.candidates_factorized", "decode.factorization_failures",
                 "decode.candidate_scores", "montecarlo.trials", "bounds.calls")


class Tracer:
    """Wraps `suprec` callables and accumulates span times and counts."""

    def __init__(self):
        self._installed = []            # (owner, attribute, original)
        self._stack = []                # open spans: [name, child seconds]
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _wrap(self, fn, name: str, counter):
        tracer = self
        layer = name.split(".", 1)[0]

        def span(*args, **kwargs):
            stack = tracer._stack
            entered = not stack or not stack[-1][0].startswith(layer + ".")
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if not nested:
                    tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                tracer.calls[name] += 1
                tracer.counts[f"{layer}.calls"] += entered
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def install(self) -> None:
        """Wrap every traced callable at each place a `suprec` module holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counter in SPANS:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, name, counter)
            if cls_name:
                self._replace(owner, method, original, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "suprec" or mod_name.startswith("suprec.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped callable."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def metrics(self) -> dict:
        """Per-layer metric values for everything recorded since reset()."""
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = (self.total if kind == "s" else self.calls)[span]
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_time.items() if k.startswith(layer + "."))
        return out

    def self_time_ranking(self) -> list:
        """Span names with their self time, largest first."""
        return sorted(self.self_time.items(), key=lambda kv: -kv[1])
