"""``python -m repro.sanitize`` — run workloads under all checkers.

Runs a corpus of registered workloads (the Table I kernels on both the
CM and OpenCL paths, plus the serving layer's compiled kernels) inside
a :func:`repro.sanitize.session`, printing each kernel's verdict and
exiting non-zero if any checker found something.  The JSON report
(``--json``) is the artifact the CI sanitizer job uploads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

import repro.sanitize as sanitize


def _table1_runs() -> Dict[str, Callable]:
    """Table I workloads at quick sizes, CM and OpenCL sides."""
    from repro.workloads import conv, gemm, stencil, systolic

    g = stencil.make_grid(64, 32)
    img, w3 = conv.make_conv3x3_inputs(64, 32)
    acts, w1 = conv.make_conv1x1_inputs(hw=128, cin=32, cout=32)
    sa, sb, sc = systolic.make_inputs(64, 32, 32)
    ga, gb, gc = gemm.make_inputs(64, 32, 32)
    return {
        "table1.stencil2d.cm": lambda d: stencil.run_cm(d, g),
        "table1.stencil2d.ocl": lambda d: stencil.run_ocl(d, g),
        "table1.conv3x3.cm": lambda d: conv.run_cm_conv3x3(d, img, w3),
        "table1.conv3x3.ocl": lambda d: conv.run_ocl_conv3x3(d, img, w3),
        "table1.conv1x1.cm": lambda d: conv.run_cm_conv1x1(d, acts, w1),
        "table1.conv1x1.ocl": lambda d: conv.run_ocl_conv1x1(d, acts, w1),
        "table1.systolic.cm": lambda d: systolic.run_cm(d, sa, sb, sc),
        "table1.systolic.ocl": lambda d: systolic.run_ocl(d, sa, sb, sc),
        "table1.sgemm.cm": lambda d: gemm.run_cm_sgemm(d, ga, gb, gc),
        "table1.sgemm.ocl": lambda d: gemm.run_ocl_sgemm(d, ga, gb, gc),
    }


def _serve_runs() -> Dict[str, Callable]:
    """The serving registry's compiled kernels, sanitized."""
    from repro.serve.workloads import get_workload, workload_keys

    def run_launch(key):
        def run(device):
            launch = get_workload(key).make({"seed": 11})
            surfaces, scalars = launch.bind(device)
            kern = device.compile(launch.body, launch.name, launch.sig,
                                  launch.scalar_params)
            device.run_compiled(kern, launch.grid, surfaces,
                                scalars=scalars, name=launch.name,
                                validate="always")
            if launch.finish is not None:
                launch.finish(surfaces)
        return run

    return {f"serve.{key}": run_launch(key)
            for key in workload_keys()
            if get_workload(key).kind == "compiled"}


def workload_registry() -> Dict[str, Callable]:
    reg = _table1_runs()
    reg.update(_serve_runs())
    return reg


def run_corpus(names, strict_oob: bool = False,
               quiet: bool = False) -> sanitize.SanitizerReport:
    from repro.sim.device import Device

    registry = workload_registry()
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown workload(s) {unknown}; "
                       f"choose from {sorted(registry)}")
    report = sanitize.SanitizerReport()
    for name in names:
        device = Device()
        with sanitize.session(strict_oob=strict_oob) as sess:
            registry[name](device)
        # compiled launches fold into the session via the device path;
        # eager/OCL kernels are recorded by the session itself.
        for result in sess.report.results:
            report.add(result)
        if not quiet:
            for result in sess.report.results:
                print(f"[{name}] {result.summary()}")
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="Run registered workloads under the race, OOB and "
                    "uninit-GRF checkers.")
    parser.add_argument("--workloads", metavar="K1,K2", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--strict-oob", action="store_true",
                        help="raise on any clipped out-of-bounds lane "
                             "instead of counting")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the SanitizerReport as JSON "
                             "('-' for stdout)")
    parser.add_argument("--list", action="store_true",
                        help="list runnable workloads and exit")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    registry = workload_registry()
    if args.list:
        for name in sorted(registry):
            print(name)
        return 0
    names = (args.workloads.split(",") if args.workloads
             else sorted(registry))
    report = run_corpus(names, strict_oob=args.strict_oob,
                        quiet=args.quiet)
    if args.json == "-":
        sys.stdout.write(report.to_json() + "\n")
    elif args.json:
        report.write_json(args.json)
    if not args.quiet:
        print(report.summary())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
