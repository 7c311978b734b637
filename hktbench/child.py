"""One benchmark operation in a fresh process.

    python hktbench/child.py [--spans OUT.json [--memory]] cli HKT-ARGS...
    python hktbench/child.py [--spans OUT.json [--memory]] highrank F R PADDING OUT.npz

`cli` runs `hktlie.cli.main(HKT-ARGS)`, as `hkt` would. `highrank` takes
the documented library path, `build_matrix_rep(F, R, PADDING)` and then
`build_quaternion_triple(rep)`, and saves the matrices the benchmark checks
to OUT.npz. With `--spans` the layers are traced (see spans.py) and the
spans are written to OUT.json when the operation ends.
"""

import argparse
import importlib
import sys
import time


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--spans")
    p.add_argument("--memory", action="store_true")
    p.add_argument("mode", choices=("cli", "highrank"))
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)

    start = time.perf_counter()
    entry = importlib.import_module("hktlie.cli" if args.mode == "cli" else "hktlie")
    import_s = time.perf_counter() - start

    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer(memory=args.memory)
        tracer.install()
    try:
        if args.mode == "cli":
            code = entry.main(args.rest)
        else:
            code = _highrank(entry, *args.rest)
    finally:
        if tracer is not None:
            tracer.dump(args.spans, import_s=import_s)
    return code


def _highrank(hktlie, family, rank, padding, out):
    import numpy as np

    rep = hktlie.build_matrix_rep(family, int(rank), int(padding))
    triple = hktlie.build_quaternion_triple(rep)
    np.savez(out, generators=rep.generators, norm_const=rep.norm_const,
             u1_count=rep.u1_count, f=rep.structure_constants().f,
             I=triple.I.matrix, J=triple.J.matrix, K=triple.K.matrix,
             certified=triple.certified, quaternion=triple.quaternion_residual)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
