"""The 42 reference fits: AIC, selected lambda and likelihood passes per fit.

Run from anywhere as ``python3 tests/reference_fits.py``; it takes a few
seconds.  A change meant to leave fits unchanged should leave the output
byte-identical, so diff the output of the change against its parent's.

Data sets, each fitted in the joint and the outcome view with a freshly
assembled bundle per fit:

* ``cli-fit-20k``'s data (``dgp(20000)``, data seed 0) with the cli model;
* ``dgp(2000)`` seeds 1-8 and ``dgp(500)`` seeds 1-6 with the cli model;
* ``study_config(2000)`` replicates 0-5 of master seed 20240501 with the
  study model (``simulate.model_spec``), drawn as ``run_study`` draws them.

``dgp``, ``study_config``, the cli model and the seeds are perfbench's
(``perfbench/workloads.py``).  Each line gives the AIC's ``repr``, log10 of
the selected lambda rounded to 3 places and the number of calls to the three
likelihood kernels (``evaluate``, ``evaluate_outcome``, ``evaluate_selection``),
starting values included; the last line gives the total of those calls.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from endosurv import design as dz  # noqa: E402
from endosurv import likelihood as lk  # noqa: E402
from endosurv import optimizer as op  # noqa: E402
from endosurv import simulate as sim  # noqa: E402

KERNELS = ("evaluate", "evaluate_outcome", "evaluate_selection")


def data_sets():
    """(label, spec, config, seed) in print order."""
    cli = wl.model_spec()
    yield "cli-fit-20k's data", cli, wl.dgp(20000), wl.CLI_DATA_SEED
    for n, seeds in ((2000, range(1, 9)), (500, range(1, 7))):
        for seed in seeds:
            yield f"dgp({n}) seed {seed}", cli, wl.dgp(n), seed
    config = wl.study_config(2000)
    for r in range(6):
        yield (f"study replicate {r}", sim.model_spec(config), config,
               (wl.STUDY_MASTER_SEED, r))


def main():
    calls = [0]
    for name in KERNELS:
        def counted(*args, _real=getattr(lk, name)):
            calls[0] += 1
            return _real(*args)
        setattr(lk, name, counted)
    total = 0
    for label, spec, config, seed in data_sets():
        for view in ("joint", "outcome"):
            bundle = dz.assemble(spec, sim.generate(config, seed=seed))
            calls[0] = 0
            fit = op.fit_view(bundle, view)
            aic = float(-2.0 * fit.loglik + 2.0 * fit.edf.sum())
            print(f"{label} | {view} | {aic!r} | "
                  f"{np.log10(fit.lam).round(3).tolist()} | {calls[0]}")
            total += calls[0]
    print(f"kernel calls in all: {total}")


if __name__ == "__main__":
    main()
