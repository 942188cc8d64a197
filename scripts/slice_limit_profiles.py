#!/usr/bin/env python3
"""Tabulate slice-transgression profiles for the cone and catenoid families.

For each geometry the script prints the plus-convention transgression
integral along the radial sample schedule together with the extrapolated
limit and the closed-form target, illustrating the two-route agreement.
"""

from gblab import catalog, verify


CASES = [
    ("geometric_cone", {"link": "s1", "theta": 0.5}, 3),
    ("geometric_cone", {"link": "s1", "theta": 1.0}, 3),
    ("cone_perturbed_second_order", {}, 3),
    ("catenoid", {}, 3),
]


def run() -> None:
    for name, params, level in CASES:
        spec = catalog.get(name, **params)
        limit, samples = verify.slice_limit(spec.collar, level)
        print(f"{spec.key()}  (family {spec.family})")
        for r, v in samples:
            label = "u" if spec.collar.singular_end == "infinity" else "r"
            print(f"  {label} = {r:10.6f}   integral = {v:+.10f}")
        print(f"  extrapolated limit: {limit:+.10f}\n")


if __name__ == "__main__":
    run()
