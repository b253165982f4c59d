"""Per-layer spans around fracbound's public functions, installed from outside.

:func:`install` replaces each traced function at every ``fracbound`` module
attribute that names it, which is where its callers look it up, so calls
from one module into another and calls inside one module are both seen.
The package's own code is not edited.  A span's self time is its duration
minus the time of the traced spans that ran inside it.  Spans are folded
into per-name totals as they close, so memory stays flat at any run size.

What each layer name covers:

  quadrature            rl_left, rl_right, rl_mid, abs_moment_quadrature
  corpus.witness        random_lipschitz
  corpus.exact_rl       exact_rl_left, exact_rl_right, exact_rl_mid
  bounds.config         HadamardConfig, BullenConfig construction
  bounds.v              v_hadamard, v_bullen
  bounds.coeff          l_coeff, n_coeff, weighted_bullen_coeff
  engine.gap            hadamard_gap, bullen_gap with the exact method
  engine.gap_quad       the same with method="quadrature"
  engine.bound          hadamard_bound, bullen_bound
  engine.verify         verify
  engine.corollary_suite corollary_suite
  cli.cmd               the cmd_* subcommand functions
  cli.serialize         VerificationReport.to_bytes

QUADPACK integrand evaluations are summed from the ``infodict`` that
``scipy.integrate.quad`` returns when called with ``full_output``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Counts that must repeat exactly between two traced runs of one input.
REPEATABLE_COUNTS = ("quadrature.calls", "quadrature.neval", "corpus.witness.calls",
                     "corpus.exact_rl.calls", "bounds.v.calls")


def _gap_span(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "oracle")
    return "engine.gap_quad" if method == "quadrature" else "engine.gap"


class Tracer:
    """Per-name call counts, inclusive and self times, and error counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.neval = 0
        self._open = []  # time of finished child spans, one entry per open span

    def wrap(self, fn, name, errors=()):
        """Return ``fn`` inside a span.  ``name`` is a string or a function
        of (args, kwargs) that picks one; exceptions of the ``errors`` types
        are counted against the span's name and re-raised."""
        open_spans = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except errors:
                self.errors[key] += 1
                raise
            finally:
                duration = clock() - t0
                inner = open_spans.pop()
                self.calls[key] += 1
                self.total[key] += duration
                self.self_time[key] += duration - inner
                if open_spans:
                    open_spans[-1] += duration

        return span

    def counting_quad(self, quad):
        """Wrap ``scipy.integrate.quad`` to sum QUADPACK's ``neval``."""

        def counted(*args, **kwargs):
            result = quad(*args, **kwargs)
            if len(result) > 2 and isinstance(result[2], dict):
                self.neval += int(result[2].get("neval", 0))
            return result

        return counted

    def _us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.total[name] / calls * 1e6 if calls else 0.0

    def metrics(self) -> dict:
        """Per-layer figures of one traced run, keyed by metric name."""
        return {
            "quadrature.calls": self.calls["quadrature"],
            "quadrature.us_per_call": self._us_per_call("quadrature"),
            "quadrature.self_s": self.self_time["quadrature"],
            "quadrature.neval": self.neval,
            "quadrature.tolerance_errors": self.errors["quadrature"],
            "corpus.witness.calls": self.calls["corpus.witness"],
            "corpus.witness.us_per_call": self._us_per_call("corpus.witness"),
            "corpus.exact_rl.calls": self.calls["corpus.exact_rl"],
            "corpus.exact_rl.us_per_call": self._us_per_call("corpus.exact_rl"),
            "corpus.exact_rl.self_s": self.self_time["corpus.exact_rl"],
            "bounds.config.us_per_call": self._us_per_call("bounds.config"),
            "bounds.v.calls": self.calls["bounds.v"],
            "bounds.v.us_per_call": self._us_per_call("bounds.v"),
            "bounds.coeff.us_per_call": self._us_per_call("bounds.coeff"),
            "engine.gap.us_per_call": self._us_per_call("engine.gap"),
            "engine.gap_quad.us_per_call": self._us_per_call("engine.gap_quad"),
            "engine.bound.us_per_call": self._us_per_call("engine.bound"),
            "engine.verify.us_per_call": self._us_per_call("engine.verify"),
            "engine.corollary_suite_s": self.total["engine.corollary_suite"],
            "cli.self_s": self.self_time["cli.cmd"],
            "cli.serialize_s": self.total["cli.serialize"],
        }


def _replace(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fracbound" or mod_name.startswith("fracbound.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap the traced functions of an imported fracbound and return the tracer."""
    import scipy.integrate
    from fracbound import bounds, cli, corpus, engine, quadrature

    tracer = Tracer()
    layers = (
        (quadrature, ("rl_left", "rl_right", "rl_mid", "abs_moment_quadrature"),
         "quadrature", (quadrature.QuadratureToleranceError,)),
        (corpus, ("random_lipschitz",), "corpus.witness", ()),
        (corpus, ("exact_rl_left", "exact_rl_right", "exact_rl_mid"), "corpus.exact_rl", ()),
        (bounds, ("HadamardConfig", "BullenConfig"), "bounds.config", ()),
        (bounds, ("v_hadamard", "v_bullen"), "bounds.v", ()),
        (bounds, ("l_coeff", "n_coeff", "weighted_bullen_coeff"), "bounds.coeff", ()),
        (engine, ("hadamard_gap", "bullen_gap"), _gap_span, ()),
        (engine, ("hadamard_bound", "bullen_bound"), "engine.bound", ()),
        (engine, ("verify",), "engine.verify", ()),
        (engine, ("corollary_suite",), "engine.corollary_suite", ()),
        (cli, ("cmd_verify_hadamard", "cmd_verify_bullen", "cmd_check_identities",
               "cmd_audit_corollaries", "cmd_sweep"), "cli.cmd", ()),
    )
    for module, attrs, name, errors in layers:
        for attr in attrs:
            original = getattr(module, attr)
            _replace(original, tracer.wrap(original, name, errors))
    report = cli.VerificationReport
    report.to_bytes = tracer.wrap(report.to_bytes, "cli.serialize")
    scipy.integrate.quad = tracer.counting_quad(scipy.integrate.quad)
    return tracer
