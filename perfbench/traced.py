"""Run one shornoise CLI command with every library call timed.

Usage: python traced.py TRACE_JSON ARGV...

Imports shornoise.cli (timing the import), replaces each public function
of the library modules with a timing wrapper in every module namespace
that binds it, runs `shornoise.cli.main(ARGV)` and writes per-function
call counts, total and self times plus layer counters to TRACE_JSON.
Self time is a span's duration minus the time of the wrapped calls made
inside it. The library itself is not modified.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LIBRARY_MODULES = ("numth", "errmodel", "spectrum", "qcircuit", "experiment")
# Private functions worth counting: the closed form's per-c fallback.
EXTRA_FUNCTIONS = ("spectrum._direct_value_at",)


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        # Per wrapped function: [calls, total seconds, self seconds].
        self.functions: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.masks: list[dict] = []
        self._mask_keys: set[tuple] = set()
        self._orders: dict[tuple[int, int], int] = {}
        # Child time accumulated by each open span; the root is cli.main.
        self.stack: list[float] = [0.0]
        self._find_order = package.numth.find_order

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def install(self) -> None:
        modules = [getattr(self.package, name) for name in LIBRARY_MODULES]
        targets = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_")
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (public or f"{short}.{attr}" in EXTRA_FUNCTIONS)
                ):
                    targets[obj] = self._wrap(f"{short}.{attr}", obj)
        namespaces = modules + [self.package, self.package.cli]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(module, attr, targets[obj])

    def _wrap(self, name: str, fn):
        record = self.functions.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
            if hook is not None:
                if name == "numth.recover_order" and len(args) >= 4 and not kwargs:
                    hook(result, args[2], args[3])
                else:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(result, elapsed=elapsed, **bound.arguments)
            return result

        return wrapper

    # Counter hooks, named after the wrapped function. They run after the
    # span closes; the time they take lands in the caller's span.

    def _on_numth_recover_order(self, result, modulus, base, **_) -> None:
        key = (base, modulus)
        if key not in self._orders:
            self._orders[key] = self._find_order(base, modulus)
        if result == self._orders[key]:
            self.add("numth.recover_hits", 1)

    def _on_errmodel_sample_phase_errors(self, result, model, count, **_) -> None:
        if not model.deterministic:
            self.add("errmodel.draws", count)

    def _on_errmodel_sample_amplitude_errors(self, result, model, count, **_) -> None:
        if not model.deterministic and model.include_amplitude_errors:
            self.add("errmodel.draws", count)

    def _on_spectrum_direct_spectrum(self, result, inst, **_) -> None:
        self.add("spectrum.fft_points", inst.register_size)

    def _on_spectrum_write_spectrum_csv(self, result, spec, **_) -> None:
        self.add("spectrum.csv_rows", spec.register_size)

    def _gate(self, state) -> None:
        self.add("qcircuit.gates", 1)
        self.add("qcircuit.bytes_computed", 32 * (1 << state.n_qubits))

    def _on_qcircuit_apply_hadamard_noisy(self, result, state, **_) -> None:
        self._gate(state)

    def _on_qcircuit_apply_controlled_phase_noisy(self, result, state, **_) -> None:
        self._gate(state)

    def _on_qcircuit_sample_outcomes(self, result, shots, **_) -> None:
        self.add("qcircuit.shots", shots)

    def _on_qcircuit_measure_all(self, result, **_) -> None:
        self.add("qcircuit.shots", 1)

    def _on_experiment_peak_report(self, result, **_) -> None:
        self.add("experiment.peaks_found", len(result.peaks))

    def _on_experiment_success_probability(
        self, result, elapsed, spec, multiplier_bound, **_
    ) -> None:
        inst = spec.instance
        key = (inst.register_size, inst.modulus, inst.base, inst.order, multiplier_bound)
        if key in self._mask_keys:
            self.add("experiment.success_warm_s", elapsed)
            return
        self._mask_keys.add(key)
        # Already cached by the call just made, so this costs no recovery.
        hits = sum(self.package.experiment._recovery_mask(*key))
        self.add("experiment.mask_s", elapsed)
        self.add("experiment.mask_entries", inst.register_size)
        self.add("experiment.mask_hits", hits)
        self.masks.append(
            {"q": key[0], "bound": multiplier_bound, "hits": hits, "seconds": elapsed}
        )


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import shornoise
    import shornoise.cli

    import_s = perf_counter() - start
    tracer = Tracer(shornoise)
    tracer.install()
    code = 1
    start = perf_counter()
    try:
        code = shornoise.cli.main(argv)
    finally:
        main_s = perf_counter() - start
        with open(trace_path, "w") as f:
            json.dump(
                {
                    "exit": code,
                    "import_s": import_s,
                    "main_s": main_s,
                    "main_self_s": main_s - tracer.stack[0],
                    "functions": tracer.functions,
                    "counters": tracer.counters,
                    "masks": tracer.masks,
                },
                f,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
