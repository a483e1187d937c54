"""The four benchmark workloads: seeded inputs, one op each, and its gate.

A workload turns the workload seed into the inputs of op ``i``
(:meth:`op_input`), runs the op through the library's public API or
``fraclattice.cli.run`` (:meth:`run`, the only timed call), and checks the
paper property the op's experiment reports (:meth:`check`), returning a
short numeric summary that is compared against stored reference values
on the default seed.  Library functions are always looked up through
their module at call time, so the span wrappers of the traced run see
the benchmark's own calls too.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import fraclattice.cli
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.solver import SolverConfig

CUBIC = NonlinearitySpec.cubic(1.0, 1.0)

#: Noise on sites {0, 1, -2} with forcing 0.3 at the origin (criteria 05 and 07).
_SPARSE_NOISE = {0: 0.8, 1: 0.5, -2: 0.4}
_FORCING = {0: 0.3}


def op_rng(seed: int, workload: str, i: int) -> np.random.Generator:
    """Generator for op ``i``: a pure function of the workload seed."""
    tag = int.from_bytes(workload.encode(), "little") % (1 << 32)
    return np.random.default_rng([int(seed), tag, int(i)])


def master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class ContractionSeeds:
    """Criterion 05(b): matched-noise contraction of two starts, d = 33."""

    name = "contraction-seeds"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        n = 16
        self.params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, _FORCING),
            noise_amp=LatticeVector.from_support(n, _SPARSE_NOISE),
            half_width=n,
        )
        self.grid = TimeGrid(dt=1e-3, n_steps=5000)
        self.config = SolverConfig(dt=1e-3, t_end=5.0)

    def op_input(self, i: int):
        rng = op_rng(self.seed, self.name, i)
        d = self.params.n_sites
        starts = rng.standard_normal((2, d))
        starts *= rng.uniform(1.0, 3.0, (2, 1)) / np.linalg.norm(starts, axis=1, keepdims=True)
        return master_seed(rng), LatticeVector(starts[0]), LatticeVector(starts[1])

    def run(self, inp):
        seed, u0, w0 = inp
        field = fraclattice.noise.build_noise_field(self.params, self.grid, seed)
        return fraclattice.attractor.contraction_experiment(
            u0, w0, field, self.params, CUBIC, self.config
        )

    def check(self, inp, rep):
        return rep.pointwise_ok, [float(rep.distances[-1])]

    def cleanup(self, inp):
        return 0


class OUReplicates:
    """Criterion 09: one stationary OU replicate on a d = 5 field over [-30, 5]."""

    name = "ou-replicates"
    times = (0.0, 1.0, 5.0)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        n = 2
        self.params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.zeros(n),
            noise_amp=LatticeVector.from_support(n, {-1: 0.5, 0: 1.0, 1: 0.5}),
            half_width=n,
        )
        self.grid = TimeGrid(dt=0.01, n_steps=3500, i_start=-3000)

    def op_input(self, i: int):
        return master_seed(op_rng(self.seed, self.name, i))

    def run(self, seed):
        field = fraclattice.noise.build_noise_field(self.params, self.grid, seed)
        ou = fraclattice.noise.stationary_ou(1.0, field)
        rho = fraclattice.noise.noise_growth_constant(field)
        sq = [float(np.linalg.norm(ou.at(t).values)) ** 2 for t in self.times]
        return ou, rho, sq

    def check(self, seed, out):
        ou, rho, sq = out
        norms = np.linalg.norm(ou.values, axis=1)
        bound = 4.0 * rho * (1.0 + np.abs(ou.grid.times())) ** 2
        ok = bool(np.isfinite(ou.values).all() and np.isfinite(rho)
                  and (norms <= bound + 1e-12).all())
        return ok, sq

    def cleanup(self, inp):
        return 0


class _CliWorkload:
    """An op is ``cli.load_config`` plus ``cli.run`` on a config written to a
    fresh temporary directory, which also receives the run's output."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def config(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def op_input(self, i: int) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        cfg = self.config(op_rng(self.seed, self.name, i))
        cfg["output_dir"] = str(out / "out")
        (out / "config.json").write_text(json.dumps(cfg))
        return out

    def run(self, tmp: Path):
        cfg = fraclattice.cli.load_config(tmp / "config.json")
        return fraclattice.cli.run(cfg)

    def cleanup(self, tmp: Path) -> int:
        """Remove the op's directory; returns the bytes the run wrote."""
        written = dir_bytes(tmp / "out")
        shutil.rmtree(tmp)
        return written


class PullbackCli(_CliWorkload):
    """Criterion 07 through the CLI: 16 starts pulled back over [1, 2, 4, 8]."""

    name = "pullback-cli"

    def config(self, rng):
        return {
            "hurst": 0.75,
            "lattice": {
                "coupling": 1.0, "damping": 1.0, "half_width": 16,
                "boundary": "zero-padding",
                "forcing": {str(k): v for k, v in _FORCING.items()},
                "noise_amp": {str(k): v for k, v in _SPARSE_NOISE.items()},
            },
            "nonlinearity": {"kind": "cubic", "a": 1.0, "b": 1.0},
            "solver": {"scheme": "heun", "dt": 0.01, "t_end": 1.0},
            "grid": {"dt": 0.01, "t_past": 25.0, "t_future": 1.0},
            "experiment": {"name": "pullback", "radius": 10.0, "n_starts": 16,
                           "horizons": [1.0, 2.0, 4.0, 8.0], "equilibrium_tol": 1e-6},
            "master_seed": master_seed(rng),
        }

    def check(self, tmp: Path, manifest):
        if not manifest.all_passed:
            return False, []
        # The CLI does not write the equilibrium vector; the distance of
        # each endpoint cloud to it (hausdorff_to_equilibrium) pins it down.
        rows = np.loadtxt(tmp / "out" / "pullback_diameters.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        summary = rows[:, 1:].ravel().tolist()
        return True, summary + [float(manifest.numbers["equilibrium_horizon"])]


class WideSimulate(_CliWorkload):
    """One d = 513 trajectory with every site noisy, written as CSV."""

    name = "wide-simulate"
    half_width = 256

    def config(self, rng):
        n = self.half_width
        u0 = 0.5 * rng.standard_normal(2 * n + 1)
        return {
            "hurst": 0.75,
            "lattice": {
                "coupling": 1.0, "damping": 1.0, "half_width": n,
                "boundary": "zero-padding", "forcing": {},
                "noise_amp": {str(i): 0.5 for i in range(-n, n + 1)},
            },
            "nonlinearity": {"kind": "cubic", "a": 1.0, "b": 1.0},
            "solver": {"scheme": "heun", "dt": 0.01, "t_end": 5.0},
            "grid": {"dt": 0.01, "t_past": 0.0, "t_future": 5.0},
            "experiment": {"name": "simulate",
                           "u0": {str(i - n): float(x) for i, x in enumerate(u0)}},
            "master_seed": master_seed(rng),
        }

    def check(self, tmp: Path, manifest):
        if not manifest.all_passed:
            return False, []
        return True, [float(manifest.numbers["final_norm"])]


WORKLOADS = {w.name: w for w in (ContractionSeeds, OUReplicates, PullbackCli, WideSimulate)}
