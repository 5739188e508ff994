"""Exception types shared across the package."""

from __future__ import annotations


class IllConditionedModelError(RuntimeError):
    """Cholesky factorization failed even after the full jitter ladder."""

    def __init__(self, attempted_levels):
        self.attempted_levels = tuple(attempted_levels)
        super().__init__(
            "covariance factorization failed; attempted jitter levels: "
            f"{self.attempted_levels}"
        )


class NonFiniteCovarianceError(ArithmeticError):
    """A covariance matrix held inf or NaN entries before factorization."""

    def __init__(self, n_bad: int, shape):
        super().__init__(
            f"non-finite covariance: {n_bad} of {'x'.join(map(str, shape))} "
            "entries are inf or NaN; the hyperparameters are outside the "
            "range the kernels can evaluate"
        )


class StuckChainError(RuntimeError):
    """The sampler rejected every proposal for an excessive number of steps."""

    def __init__(self, n_steps: int, diagnostics: dict | None = None):
        super().__init__(
            f"no proposal accepted in {n_steps} steps; "
            f"diagnostics: {diagnostics or {}}"
        )


class EnumerationGuardError(RuntimeError):
    """Exhaustive subset enumeration would exceed the configured guard."""

    def __init__(self, n_combos: int, max_combos: int):
        super().__init__(
            f"{n_combos} subsets exceed the guard of {max_combos}; "
            "re-run with --full-scale to lift the limit"
        )


class EntropyOverflowError(ArithmeticError):
    """Joint entropies of sensor subsets overflowed the float range."""

    def __init__(self, n_sensors: int, k: int):
        super().__init__(
            f"joint entropies of {k} of {n_sensors} sensors overflowed: "
            "conditioning a subset in order grew its covariance past the "
            "float range, as nearly collinear candidates or a large signal "
            "variance sigma_s2 do; use fewer candidates or sensors, a "
            "shorter length scale or a smaller sigma_s2"
        )


class DataFormatError(ValueError):
    """A CSV input file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
