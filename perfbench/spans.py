"""Per-layer tracing from outside the program.

The tracer replaces public functions of cvtypical with thin wrappers that
time each call, then puts the originals back.  A function is wrapped in the
namespace its caller looks it up in (``harness.symplectic_spectrum``, not
``symplectic.symplectic_spectrum``), which is the same seam the test suite
monkeypatches.  Nothing under ``src/`` changes.

Self time of a layer is its span minus the time covered by the spans of
wrapped functions it called.  Time spent in unwrapped helpers is charged to
the nearest wrapped caller.  Spans are aggregated per layer as they close;
only ``harness.run_trial`` keeps every duration, for its percentiles.

Spans are collected in this process only.  With ``--workers 2`` the trial
layers run in forked pool workers, whose spans are lost; there the parent's
``harness.run_ensemble`` self time is the pool dispatch and the wait for the
workers.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, [(module, attribute), ...]) in the order the report lists them.
# Module names are relative to the cvtypical package.
LAYERS = (
    ("cli.parse_config", [("cli", "parse_config")]),
    ("cli.execute", [("cli", "execute")]),
    ("harness.run_ensemble", [("cli", "run_ensemble"), ("harness", "run_ensemble")]),
    ("harness.run_trial", [("harness", "run_trial")]),
    ("harness.summarize_records", [("harness", "summarize_records")]),
    ("harness.format_trials_csv", [("cli", "format_trials_csv"), ("harness", "format_trials_csv")]),
    ("harness._atomic_write_text", [("cli", "_atomic_write_text"), ("harness", "_atomic_write_text")]),
    ("haar.SeededStream.generator", [("haar.SeededStream", "generator")]),
    ("haar.sample_haar_unitary", [("harness", "sample_haar_unitary")]),
    ("profiles.sample_profile", [("harness", "sample_profile")]),
    ("symplectic.fiducial_covariance", [("harness", "fiducial_covariance")]),
    ("symplectic.eta_embed", [("harness", "eta_embed")]),
    ("symplectic.rotate_covariance", [("harness", "rotate_covariance")]),
    ("symplectic.reduce_covariance", [("harness", "reduce_covariance")]),
    ("symplectic.gaussian_entropy", [("harness", "gaussian_entropy")]),
    ("symplectic.spectral_deviation_delta", [("harness", "spectral_deviation_delta")]),
    # one wrapper; run_trial calls it first on the 2n x 2n state, then on the
    # 2k x 2k reduced one, so call order names the span (shapes coincide at k = n)
    ("symplectic.symplectic_spectrum", [("harness", "symplectic_spectrum")]),
    ("moments.moment_inputs_from_spectrum", [("cli", "moment_inputs_from_spectrum"), ("moments", "moment_inputs_from_spectrum")]),
    ("moments.tilde_lambda_squared", [("moments", "tilde_lambda_squared")]),
    ("moments.fourth_moment_trace", [("moments", "fourth_moment_trace")]),
    ("moments.expected_f", [("moments", "expected_f")]),
    ("weingarten.weingarten", [("cli", "weingarten")]),
    ("weingarten.gram_weingarten_oracle", [("cli", "gram_weingarten_oracle")]),
)

SPECTRUM_SPANS = ("symplectic.symplectic_spectrum.full", "symplectic.symplectic_spectrum.reduced")


def span_names() -> list:
    """Every span name the tracer reports, in report order."""
    names = []
    for layer, _targets in LAYERS:
        names.extend(SPECTRUM_SPANS if layer == "symplectic.symplectic_spectrum" else [layer])
    return names


# Real floating-point operations, computed from shapes (LAPACK operation
# counts, not measured): complex QR plus forming Q is 2 x (16/3) n^3; the
# rotation O M O^T is two real 2n x 2n products; the full spectrum is the
# J @ M product plus ~10 N^3 for the eigenvalues of a general N x N matrix.
def _qr_flops(args):
    n = args[0]
    return (32.0 / 3.0) * n**3


def _rotate_flops(args):
    size = args[0].shape[0]
    return 4.0 * size**3


def _full_spectrum_flops(args):
    size = args[0].shape[0]
    return 12.0 * size**3


GFLOP_COUNTERS = {
    "haar.sample_haar_unitary": ("haar.qr.gflop_computed", _qr_flops),
    "symplectic.rotate_covariance": ("symplectic.rotate.gflop_computed", _rotate_flops),
    SPECTRUM_SPANS[0]: ("symplectic.spectrum_full.gflop_computed", _full_spectrum_flops),
}


class Tracer:
    """Wraps the layers of one imported cvtypical package.

    ``install()`` and ``uninstall()`` alternate; counts add up across them.
    """

    def __init__(self, package):
        self._package = package
        self._patches = []  # (owner, attribute, original)
        self._stack = []  # child nanoseconds of each open span
        self._spectra_in_trial = 0
        self.calls = {name: 0 for name in span_names()}
        self.self_ns = {name: 0 for name in span_names()}
        self.trial_ns = []
        self.gflop = {counter: 0.0 for counter, _ in GFLOP_COUNTERS.values()}

    def _owner(self, dotted: str):
        module, _, rest = dotted.partition(".")
        owner = importlib.import_module(f"{self._package.__name__}.{module}")
        for part in filter(None, rest.split(".")):
            owner = getattr(owner, part)
        return owner

    def _close(self, name: str, duration_ns: int) -> None:
        child_ns = self._stack.pop()
        self.calls[name] += 1
        self.self_ns[name] += duration_ns - child_ns
        if self._stack:
            self._stack[-1] += duration_ns

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter_ns
        is_trial = layer == "harness.run_trial"
        is_spectrum = layer == "symplectic.symplectic_spectrum"

        def wrapper(*args, **kwargs):
            name = layer
            if is_trial:
                self._spectra_in_trial = 0
            elif is_spectrum:
                name = SPECTRUM_SPANS[min(self._spectra_in_trial, 1)]
                self._spectra_in_trial += 1
            counter = GFLOP_COUNTERS.get(name)
            if counter is not None:
                self.gflop[counter[0]] += counter[1](args) * 1e-9
            self._stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if is_trial:
                    self.trial_ns.append(duration)
                self._close(name, duration)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        self._patches = []
        for layer, targets in LAYERS:
            for dotted, attribute in targets:
                owner = self._owner(dotted)
                # read the class dict so a method is restored as the plain function
                original = vars(owner).get(attribute)
                if original is None:
                    continue  # a later refactor removed this seam; report 0 calls
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)

    def restored(self) -> bool:
        """True when every attribute install() replaced holds its original."""
        return all(vars(owner).get(attribute) is original for owner, attribute, original in self._patches)
