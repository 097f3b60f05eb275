"""Time the set-up of one `upkolmo run`, in a fresh interpreter.

    python3 bench/setup_probe.py CONFIG MODE

Prints the seconds spent importing `upkolmo`, loading CONFIG and building
the `Stepper` that `upkolmo run --mode MODE` marches with.  Needs
`upkolmo` importable, e.g. through PYTHONPATH=src.
"""

import sys
import time


def main(config, mode):
    start = time.perf_counter()
    from upkolmo import io, scheme
    loaded = io.load_config(config)
    # The arguments `solver.solve_entropy` / `solve_impulsive` give it.
    gamma = 0.0 if mode == "impulsive" else loaded.spec.gamma
    scheme.Stepper(loaded.spec, loaded.grid, eps=0.0, gamma=gamma,
                   options=loaded.options)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(*sys.argv[1:])
