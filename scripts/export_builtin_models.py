#!/usr/bin/env python3
"""Regenerate the example model files in modelfiles/ from the builtin library.

Run from the repository root:  python3 scripts/export_builtin_models.py
It takes no options: --help prints usage, and any other argument is a usage
error (exit 2); neither writes a file.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from equicart import models  # noqa: E402


def export(out_dir: str) -> None:
    """Write the four example model files into out_dir."""
    sphere = models.s2_rotation()
    models.save_model(
        sphere,
        os.path.join(out_dir, "s2_rotation.json"),
        maps={"identity": models.builtin_map("s2_identity")},
    )
    models.save_model(
        models.circle_free(), os.path.join(out_dir, "circle_free.json")
    )
    models.save_model(
        models.c_alpha([[1, 0], [0, 1]]),
        os.path.join(out_dir, "two_weighted_planes.json"),
    )
    # a point file carrying the inclusion and collapse maps of the s2 chain
    chain = models.s2_chain()
    models.save_model(
        chain.point,
        os.path.join(out_dir, "point_with_s2_maps.json"),
        maps={"north": chain.north, "south": chain.south},
    )


def main(argv=None) -> None:
    argparse.ArgumentParser(
        description="Rewrite the four example model files in modelfiles/ "
        "from the builtin library and validate each one.",
    ).parse_args(argv)
    out_dir = os.path.join(os.path.dirname(__file__), "..", "modelfiles")
    os.makedirs(out_dir, exist_ok=True)
    export(out_dir)
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            loaded = models.load_model_file(os.path.join(out_dir, name))
            print(f"{name}: model {loaded.model.name!r}, "
                  f"{len(loaded.maps)} map(s), validated")


if __name__ == "__main__":
    main()
