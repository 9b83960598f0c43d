"""Command-line front end: ``epr <scenario> [options]``.

Configuration precedence is CLI flag > config file > built-in default. The
config file is a single JSON object whose keys mirror the echoed ``config``
section of every result document, so any emitted document can be re-run
verbatim. Unknown or repeated config keys are errors.

Exit codes: 0 success, 1 configuration error, 2 internal invariant violation
or a worker process that ended without its counts, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import json
import os
import re
import stat
import sys
import tempfile

from ._version import __version__

# The engine's parallelism is its own worker processes, and eprsim makes no
# BLAS call a thread pool would speed up (its Jones algebra is 2x2), but
# numpy's bundled OpenBLAS would start a thread pool at load whose idle
# threads spin a core before they sleep: on a 2-vCPU VM, `import numpy` and
# 0.3 s of idling cost 0.14 s of CPU with the pool and 0.06 s without it.
# So pin OpenBLAS to one thread before `.scenarios` loads numpy. A
# value the user set is kept, and only a process that imports this module
# (the `epr` entry point) is affected: `import eprsim` loads no numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .engine import WorkerError  # noqa: E402
from .scenarios import MODEL_NAMES, ORDERING_NAMES, SCENARIOS, ConfigError  # noqa: E402

FORMATS = ("table", "tsv", "json")

# Scenario parameters that may come from a config file or a CLI flag, in
# render order, and their defaults, read off the scenario signatures once at
# import. "scenario", "format" and "out" are accepted on top of these.
_SIGNATURES = {name: inspect.signature(fn).parameters for name, fn in SCENARIOS.items()}
SCENARIO_PARAMS: dict[str, tuple[str, ...]] = {
    name: tuple(params) for name, params in _SIGNATURES.items()
}
_DEFAULTS: dict[str, dict] = {
    name: {key: param.default for key, param in params.items()}
    for name, params in _SIGNATURES.items()
}
_HELP = {name: (fn.__doc__ or "").strip().split("\n")[0] for name, fn in SCENARIOS.items()}

# The command-line flag of each scenario parameter.
_FLAGS: dict[str, tuple[str, dict]] = {
    "model": ("--model", dict(choices=MODEL_NAMES, help="hypothesis model")),
    "angles_deg": (
        "--angles",
        dict(type=float, nargs="+", metavar="DEG",
             help="analyzer angles in degrees (chsh-scan: a b a' b')"),
    ),
    "theta_deg": ("--theta", dict(type=float, help="analyzer angle gap in degrees")),
    "trials": ("--trials", dict(type=int, help="trials per settings block")),
    "seed": ("--seed", dict(type=int, help="64-bit run seed")),
    "ordering": (
        "--ordering",
        dict(choices=tuple(ORDERING_NAMES), help="which arm is booked as measured first"),
    ),
    "k_sigma": ("--k-sigma", dict(type=float, help="verdict threshold in sigmas")),
    "workers": ("--workers", dict(type=int, help="worker process cap")),
}


# A negative number as `float` reads it: argparse's own pattern (Python 3.11)
# knows -12 and -1.5 but takes -1e3, -.5E+1 or -inf for a flag.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as config errors instead of exiting,
    and reads every negative number as a value (subparsers share the class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epr",
        description=(
            "Monte Carlo workbench for two-photon polarization-correlation "
            "experiments under competing physical models."
        ),
    )
    parser.add_argument("--version", action="version", version=f"epr {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")
    for name, params in SCENARIO_PARAMS.items():
        p = sub.add_parser(name, help=_HELP[name])
        for param in params:
            flag, spec = _FLAGS[param]
            p.add_argument(flag, dest=param, default=None, **spec)
        p.add_argument("--config", default=None, metavar="PATH", help="JSON config file")
        p.add_argument("--format", choices=FORMATS, default=None, help="output format")
        p.add_argument("--out", default=None, metavar="PATH", help="output path (default stdout)")
    return parser


def _shown(key: str) -> str:
    """A config key as an error message names it: as written, or quoted when
    a character in it (a newline, say) would break the one-line message."""
    return key if key.isprintable() else repr(key)


def _unique_keys(pairs: list) -> dict:
    """`json` object hook: a key given twice is an error, not last-one-wins."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"{_shown(key)}: given twice in the config file")
        data[key] = value
    return data


def _load_config_file(path: str, scenario: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config: {path} nests too deeply to read") from None
    if not isinstance(data, dict):
        raise ConfigError("config: the config file must hold a JSON object")
    allowed = set(SCENARIO_PARAMS[scenario]) | {"scenario", "format", "out"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{_shown(key)}: unknown config field for scenario {scenario!r}")
    declared = data.get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"scenario: config file declares {declared!r} but {scenario!r} was requested"
        )
    return data


def _resolve(args: argparse.Namespace) -> tuple[str, dict, str, str | None]:
    scenario = args.scenario
    file_cfg = _load_config_file(args.config, scenario) if args.config else {}
    resolved = {}
    for param in SCENARIO_PARAMS[scenario]:
        cli_value = getattr(args, param)
        if cli_value is not None:
            resolved[param] = cli_value
        elif param in file_cfg:
            resolved[param] = file_cfg[param]
        else:
            resolved[param] = _DEFAULTS[scenario][param]
    out_format = args.format or file_cfg.get("format")
    if out_format is None:  # absent, or null in the config file
        out_format = "table"
    if out_format not in FORMATS:
        raise ConfigError(f"format: unknown format {out_format!r}")
    out_path = args.out if args.out is not None else file_cfg.get("out")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"out: must be a path, got {out_path!r}")
    return scenario, resolved, out_format, out_path


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    return str(value)


def render_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def render_tsv(document: dict) -> str:
    """Deterministic, plottable export: counts and derived columns only.

    Engine metadata (wall time, workers, stream id) is deliberately left to the
    JSON format so identical configs produce byte-identical TSV.
    """
    lines = [f"# scenario: {document['scenario']}"]
    lines.append("# config: " + json.dumps(document["config"], sort_keys=True, separators=(",", ":")))
    rows = document["rows"]
    columns = list(rows[0].keys())
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt_value(row[c]) for c in columns))
    for key, value in document["summary"].items():
        lines.append(f"# {key}: {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def render_table(document: dict) -> str:
    lines = [f"scenario: {document['scenario']}"]
    cfg = document["config"]
    lines.append("config:   " + ", ".join(f"{k}={_fmt_value(v)}" for k, v in cfg.items() if k != "scenario"))
    rows = document["rows"]
    columns = list(rows[0].keys())

    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return _fmt_value(value)

    table = [columns] + [[cell(row[c]) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines.append("")
    for r in table:
        lines.append("  ".join(text.rjust(w) for text, w in zip(r, widths)))
    lines.append("")
    for key, value in document["summary"].items():
        lines.append(f"{key}: {cell(value)}")
    engine = document["engine"]
    lines.append(
        f"[{engine['version']} | rng {engine['rng_stream']} | "
        f"{engine['trials_total']} trials in {engine['wall_time_s']}s]"
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "tsv": render_tsv, "table": render_table}


@contextlib.contextmanager
def _open_out(path: str | None):
    """stdout, or a temporary file beside `path` that replaces it once the
    document is written. It is made before the run, so a path that cannot be
    written costs no compute, and a failed run leaves `path` as it was. The
    file gets the mode a shell redirect would give it; a path that is not a
    regular file, such as /dev/null, is written in place."""
    if path is None:
        if sys.stdout is None:  # Python's stdout where fd 1 was closed at start
            raise ConfigError("out: cannot write to standard output: it is closed")
        yield sys.stdout
        return
    temporary = None
    try:
        target = os.path.realpath(path)  # a symlink stays one; its target is replaced
        if path.endswith(os.sep) or (os.path.exists(target) and not os.path.isfile(target)):
            fh = open(path, "w", encoding="utf-8")
        else:
            umask = os.umask(0o22)
            os.umask(umask)
            mode = 0o666 & ~umask
            if os.path.exists(target):
                open(target, "a").close()  # fails where a redirect would, truncates nothing
                mode = stat.S_IMODE(os.stat(target).st_mode)
            fd, temporary = tempfile.mkstemp(".tmp", ".epr-", os.path.dirname(target))
            os.chmod(temporary, mode)
            fh = open(fd, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL or an unencodable character in the path
        raise ConfigError(f"out: cannot write {path!r}: {exc}") from None
    try:
        with fh:
            yield fh
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException:
        if temporary is not None:
            with contextlib.suppress(OSError):  # keep the run's own error
                os.unlink(temporary)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        scenario, params, out_format, out_path = _resolve(args)
        with _open_out(out_path) as fh:
            document = SCENARIOS[scenario](**params)
            document["config"]["format"] = out_format
            document["config"]["out"] = out_path
            fh.write(_RENDERERS[out_format](document))
    except OSError as exc:
        # Only the output is written after the config file has been read.
        print(f"epr: config error: out: cannot write: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"epr: config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Every bad input is a ConfigError by the time it reaches here; any
        # other ValueError (NormalizationError included) is a broken invariant.
        print(f"epr: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        # A worker died without its counts (the engine has reaped the others
        # by now), so the run has no result to give.
        print(f"epr: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The engine has killed and reaped its worker processes by now.
        print("epr: interrupted", file=sys.stderr)
        return 130
    return 0


# Move every object loaded so far, numpy's and this package's, into the
# collector's permanent generation: an `epr` process then scans them neither
# in a collection nor in the module sweep at exit, which was most of a short
# run's teardown: a `model-matrix` child's fell from about 30 ms to about
# 9 ms on a 2-vCPU VM (`BENCH_17.json`, `child_phases`). Done once, here at
# import and not in `main`, which tests call many times in one process. A
# program that imports `eprsim`, or any module of it but this one, keeps its
# collector as it was.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
