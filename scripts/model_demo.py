#!/usr/bin/env python3
"""Build the explicit model for a backward-shift section of a kernel given
in the spec language and print the residual diagnostics.

Usage: python scripts/model_demo.py [--kernel SPEC] [--section 64] [-N 511]
"""

import argparse
import sys

from herop.model import build_model, minimality_check, verify_relation_DCW
from herop.operators import Direction, operator_norm, seeded_unit_vectors, shift_section
from herop.series import invert_kernel
from herop.specdsl import elaborate, parse_kernel_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernel", default="pow1mt(-0.5)")
    parser.add_argument("--section", type=int, default=64)
    parser.add_argument("-N", "--truncation", type=int, default=511)
    args = parser.parse_args()

    k = elaborate(parse_kernel_spec(args.kernel), args.truncation)
    pair = invert_kernel(k)
    section = shift_section(k, Direction.BACKWARD, args.section)
    bundle = build_model(pair.alpha, k, section)

    print(f"kernel          : {args.kernel}")
    print(f"type            : {bundle.kind}")
    print(f"defect rank     : {bundle.defect_rank}")
    print(f"degree cap      : {bundle.M}")
    print(f"||W||           : {operator_norm(bundle.W):.3e}")
    for key in ("isometry_residual", "intertwine_residual", "sw_residual",
                "S_welldef_residual", "contraction_excess"):
        print(f"{key:<16}: {bundle.diagnostics[key]:.3e}")
    print(f"minimal         : {minimality_check(bundle)['minimal']}")
    probes = seeded_unit_vectors(args.section, 16, seed=0)
    relation = verify_relation_DCW(pair.alpha, section, bundle.C, bundle.W, probes)
    print(f"defect relation : {relation['residual']:.3e} "
          f"(alpha(1) = {relation['alpha_at_one']:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
