"""Fresh-interpreter probe for set-up time and peak memory.

    python3 bench/child.py <src-dir> <config.json> [<argv.json>]

Times, from the first line of this script (so interpreter start is
excluded), importing ``snrdiff.cli`` and building the workload's Schedule,
GmmSpec and SamplerConfig from its JSON config, then times the host
reference kernel (hostref.py) so the parent can normalize that set-up
time.  Given a CLI argv as a JSON list, it then runs that invocation and
adds the interpreter's peak RSS.  Prints one JSON object.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from snrdiff import cli
    from snrdiff.gmm import gmm_from_dict
    from snrdiff.samplers import sampler_config_from_dict
    from snrdiff.schedule import schedule_from_dict

    with open(sys.argv[2]) as fh:
        cfg = json.load(fh)
    schedule_from_dict(cfg["schedule"])
    gmm_from_dict(cfg["gmm"])
    sampler_config_from_dict(cfg["sampler"])
    setup_s = time.perf_counter() - START
    from hostref import reference_seconds

    result = {"setup_s": setup_s, "ref_s": reference_seconds()}
    if len(sys.argv) > 3:
        argv = json.loads(sys.argv[3])
        with contextlib.redirect_stdout(io.StringIO()):
            result["rc"] = cli.main(argv)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
