"""The cold-start probe's child, and the program's own set-up.

    python3 bench/coldstart.py <workload>     # with ./src on PYTHONPATH

Run as a script in a fresh interpreter, it times `import qu2.cli`, as the
`qu2` entry point does, and the set-up the workload's program does before
its first op.  Only `sys` and `time` are imported before that, so no
module qu2 needs is loaded ahead of the timing.  Then it times a block of
calibration slices, build_parser() and main(["eq", "U", "U"]), and prints
the times as one JSON line.  startup.probe() starts it.
"""

import sys
from time import perf_counter

CALIBRATION_BLOCK_S = 0.01


def template_menu(level: int) -> dict:
    """Criterion 3's template menu at `level`, built with the library
    constructors: U^(+-2^(k-1)) and the mixed templates M{1,2}:h."""
    from qu2 import element, endo

    half = 1 << (level - 1)
    menu = {"U+": element.u(half), "U-": element.u(-half)}
    for h in range(level - 1):
        for variant in (1, 2):
            menu[f"M{variant}:{h}"] = endo.mixed_template(level, h, variant)
    return menu


def main(workload: str) -> None:
    t0 = perf_counter()
    import qu2.cli
    t1 = perf_counter()
    if workload == "sweep":
        template_menu(3)
    t2 = perf_counter()

    import io
    import json
    from contextlib import redirect_stdout

    import calibrate

    slices = []
    calibrate.time_slices(CALIBRATION_BLOCK_S, slices)
    t3 = perf_counter()
    qu2.cli.build_parser()
    t4 = perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = qu2.cli.main(["eq", "U", "U"])
    t5 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "slowdown": calibrate.slowdown(slices),
                      "build_parser_s": t4 - t3, "main_s": t5 - t4,
                      "qu2": qu2.__file__,
                      "ok": rc == 0 and buf.getvalue() == "true\n"}))


if __name__ == "__main__":
    main(sys.argv[1])
