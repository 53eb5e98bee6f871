"""``python -m repro`` — the reproduction's command line.

Five subcommands drive the scenario registry
(:mod:`repro.scenarios`) and the conformance oracles (:mod:`repro.verify`):

* ``list`` — show every registered scenario (name, paper statement,
  parameters) and the named campaigns;
* ``run <scenario>`` — execute one scenario through the batched process-pool
  engine and export its ``BENCH_<scenario>.json`` artifact, every task row
  with its per-stage wall times (``stage_seconds``);
* ``campaign [name]`` — run a named scenario set and merge the artifacts
  into one ``BENCH_campaign_<name>.json``;
* ``verify [artifacts...]`` — replay the conformance oracle suite (schema,
  paper budgets, cross-variant parity, round envelopes, recovery and each
  scenario's own check) against existing BENCH artifacts, or — with
  ``--smoke`` — against a freshly run smoke campaign.  ``run`` and
  ``campaign`` judge their rows with the same suite.  This is the CI gate
  documented in ``docs/verification.md``;
* ``corpus`` — inspect the on-disk instance cache (``REPRO_CORPUS_DIR``)
  and prune it back under its size cap with ``--prune``;
* ``serve`` — run the always-on coloring service (JSONL over TCP,
  digest-keyed cache, request batching, oracle-verified responses; see
  ``docs/serving.md``).

Examples::

    python -m repro list
    python -m repro run theorem13-colors --smoke
    python -m repro run theorem13-rounds --n 60,120,240 --seed 7
    python -m repro run scale --set sizes=1000000,
    python -m repro run serve --smoke
    python -m repro campaign --smoke --out artifacts/
    python -m repro verify BENCH_coloring.json
    python -m repro verify --smoke --out ci-artifacts/
    python -m repro corpus --prune --max-bytes 2000000000
    python -m repro serve --port 4777 --workers 4
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.scenarios import (
    CAMPAIGNS,
    ScenarioError,
    all_scenarios,
    get_scenario,
    run_campaign,
    run_scenario,
)

__all__ = ["main", "build_parser"]


def _literal_or_str(raw: str) -> Any:
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return raw


def _parse_set(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse ``--set key=value`` overrides (values via literal_eval, else str).

    A comma list that is no literal (``families=planar,`` or
    ``families=planar,regular``) becomes a tuple of such values, so string
    tuples take the same trailing-comma form as number tuples.
    """
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw if "," not in raw else tuple(
                _literal_or_str(part.strip())
                for part in raw.removesuffix(",").split(",")
            )
    return overrides


def _parse_sizes(raw: str, current: Any) -> Any:
    """Parse ``--n`` against the scenario's current size parameter shape."""
    try:
        values = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise ScenarioError(
            f"--n expects a comma-separated list of ints, got {raw!r}"
        ) from None
    if not values:
        raise ScenarioError(f"--n expects a comma-separated list of ints, got {raw!r}")
    if isinstance(current, (list, tuple)):
        return tuple(values)
    if len(values) > 1:
        raise ScenarioError(
            f"this scenario's size parameter takes a single value, got {raw!r}"
        )
    return values[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments from the scenario registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios and campaigns")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = sub.add_parser("run", help="run one scenario and export its artifact")
    p_run.add_argument("scenario", help="registered scenario name (see `repro list`)")
    p_run.add_argument("--smoke", action="store_true",
                       help="use the reduced smoke grid (fast; what CI runs)")
    p_run.add_argument("--n", dest="sizes", metavar="N[,N...]",
                       help="override the scenario's size parameter")
    p_run.add_argument("--seed", type=int, default=0,
                       help="batch base seed (per-task seeds are derived; default 0)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="process-pool size (1 = inline, default: one per core)")
    p_run.add_argument("--out", default=None,
                       help="artifact path or directory (default BENCH_<scenario>.json)")
    p_run.add_argument("--repeat", type=int, default=1, metavar="K",
                       help="run the batch K times, report median-of-K wall times "
                            "(stabilizes BENCH artifacts for tools/bench_diff.py)")
    p_run.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                       action="append", default=[],
                       help="override any scenario parameter (repeatable); the value "
                            "must have the default's type, so one value of a tuple "
                            "parameter is written sizes=1000,")
    p_run.add_argument("--no-check", action="store_true",
                       help="report check failures without failing")
    p_run.add_argument("--quiet", action="store_true", help="suppress the result table")

    p_camp = sub.add_parser("campaign", help="run a named scenario set, merge artifacts")
    p_camp.add_argument("name", nargs="?", default="all",
                        help=f"campaign name (default: all; known: {', '.join(CAMPAIGNS)})")
    p_camp.add_argument("--smoke", action="store_true",
                        help="use every scenario's reduced smoke grid")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--workers", type=int, default=None)
    p_camp.add_argument("--out", default=".",
                        help="output directory for all artifacts (default: .)")
    p_camp.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                        help="restrict the campaign to a subset of its scenarios")
    p_camp.add_argument("--no-check", action="store_true")

    p_verify = sub.add_parser(
        "verify",
        help="replay the conformance oracle suite on BENCH artifacts",
    )
    p_verify.add_argument(
        "artifacts", nargs="*",
        help="BENCH_*.json paths (campaign merges are unpacked); omit with --smoke",
    )
    p_verify.add_argument(
        "--smoke", action="store_true",
        help="first run the smoke campaign (inline) and verify its artifacts",
    )
    p_verify.add_argument("--out", default="verify-artifacts",
                          help="artifact directory for --smoke (default: verify-artifacts/)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--campaign", default="all", dest="campaign_name",
                          help="campaign to run under --smoke (default: all)")
    p_verify.add_argument("--quiet", action="store_true",
                          help="only report failures")

    p_corpus = sub.add_parser(
        "corpus",
        help="inspect or prune the on-disk instance cache",
    )
    p_corpus.add_argument("--dir", default=None,
                          help="cache directory (default: $REPRO_CORPUS_DIR)")
    p_corpus.add_argument("--prune", action="store_true",
                          help="evict least-recently-used files over the cap")
    p_corpus.add_argument("--max-bytes", type=int, default=None,
                          help="size cap for --prune "
                               "(default: $REPRO_CORPUS_MAX_BYTES; 0 empties)")

    p_serve = sub.add_parser(
        "serve",
        help="run the always-on coloring service (see docs/serving.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=4777,
                         help="TCP port (0 = ephemeral; the bound port is printed)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="process-pool size for batched compute "
                              "(1 = in-process; default 1)")
    p_serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                         help="result-cache byte cap (0 disables caching)")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="micro-batch coalescing window in milliseconds")
    p_serve.add_argument("--max-upload-edges", type=int, default=2_000_000,
                         help="reject uploads with more edges than this")
    p_serve.add_argument("--fault-injection", action="store_true",
                         help="admit the 'crash' algorithm (test harnesses only)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = all_scenarios()
    if args.json:
        payload = {
            "scenarios": [
                {
                    "name": s.name,
                    "title": s.title,
                    "paper_ref": s.paper_ref,
                    "params": {k: repr(v) for k, v in s.defaults.items()},
                    "artifact": f"BENCH_{s.name}.json",
                }
                for s in scenarios
            ],
            "campaigns": CAMPAIGNS,
        }
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(s.name) for s in scenarios)
    print(f"{len(scenarios)} registered scenarios:\n")
    for s in scenarios:
        print(f"  {s.name.ljust(width)}  {s.paper_ref:<28}  {s.title}")
    print("\ncampaigns:")
    for name, members in CAMPAIGNS.items():
        print(f"  {name}: {', '.join(members)}")
    print("\nrun one with:  python -m repro run <scenario> [--smoke] [--n N[,N...]]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    overrides = _parse_set(args.overrides)
    if args.sizes is not None:
        if scenario.size_param is None:
            raise ScenarioError(
                f"scenario {scenario.name!r} has no size parameter; use --set instead"
            )
        current = scenario.params_for(smoke=args.smoke)[scenario.size_param]
        overrides[scenario.size_param] = _parse_sizes(args.sizes, current)

    run = run_scenario(
        scenario,
        smoke=args.smoke,
        overrides=overrides or None,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
        strict=False,
        repeat=args.repeat,
    )
    if not args.quiet:
        run.runner.print_table()
        print(f"\nparams: {run.params}")
        print(f"wall time: {run.seconds:.2f}s")
    if run.path is not None:
        print(f"wrote {run.path}")
    if run.failures:
        print(f"\n{len(run.failures)} check failure(s):", file=sys.stderr)
        for failure in run.failures:
            print(f"  {failure}", file=sys.stderr)
        if not args.no_check:
            return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        members = CAMPAIGNS[args.name]
    except KeyError:
        raise ScenarioError(
            f"unknown campaign {args.name!r}; known campaigns: {', '.join(CAMPAIGNS)}"
        ) from None
    if args.only:
        wanted = [part for part in args.only.split(",") if part]
        unknown = sorted(set(wanted) - set(members))
        if unknown:
            raise ScenarioError(f"--only names not in campaign {args.name!r}: {unknown}")
        members = [name for name in members if name in wanted]

    campaign = run_campaign(
        members,
        campaign=args.name,
        smoke=args.smoke,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
        strict=False,
        progress=lambda name: print(f"[campaign {args.name}] running {name} ..."),
    )
    print(f"\n{'scenario':<24} {'rows':>5} {'seconds':>8}  checks")
    for run in campaign.runs:
        status = "ok" if run.ok else f"{len(run.failures)} FAILED"
        print(f"{run.scenario.name:<24} {len(run.runner.rows):>5} {run.seconds:>8.2f}  {status}")
    print(f"\nwrote {campaign.path} (+ {len(campaign.runs)} per-scenario artifacts)")
    if not campaign.ok:
        for run in campaign.runs:
            for failure in run.failures:
                print(f"  {run.scenario.name}: {failure}", file=sys.stderr)
        if not args.no_check:
            return 1
    return 0


def _iter_artifacts(path: Path) -> list[tuple[str, dict]]:
    """Load one BENCH file; campaign merges unpack into their members."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read artifact {path}: {exc}") from None
    if isinstance(payload, dict) and isinstance(payload.get("scenarios"), dict):
        return [
            (f"{path.name}::{name}", artifact)
            for name, artifact in sorted(payload["scenarios"].items())
        ]
    return [(path.name, payload)]


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.artifact import artifact_failures

    paths = [Path(p) for p in args.artifacts]
    if args.smoke:
        try:
            members = CAMPAIGNS[args.campaign_name]
        except KeyError:
            raise ScenarioError(
                f"unknown campaign {args.campaign_name!r}; "
                f"known campaigns: {', '.join(CAMPAIGNS)}"
            ) from None
        out_dir = Path(args.out)
        # each run already judged its rows; the replay below re-checks the
        # files as written, like any other artifact path
        campaign = run_campaign(
            members,
            campaign=args.campaign_name,
            smoke=True,
            seed=args.seed,
            workers=1,
            out=out_dir,
            strict=False,
            progress=None if args.quiet else (
                lambda name: print(f"[verify --smoke] running {name} ...")
            ),
        )
        paths = [run.path for run in campaign.runs if run.path is not None] + paths
    if not paths:
        raise ScenarioError("verify needs artifact paths (or --smoke)")

    total_failures = 0
    checked = 0
    for path in paths:
        for label, artifact in _iter_artifacts(path):
            checked += 1
            failures = artifact_failures(artifact)
            total_failures += len(failures)
            if failures:
                print(f"FAIL {label}: {len(failures)} oracle failure(s)")
                for failure in failures:
                    print(f"  {failure}", file=sys.stderr)
            elif not args.quiet:
                print(f"ok   {label}")
    if not args.quiet:
        print(
            f"\nverified {checked} artifact(s): "
            + ("all oracles passed" if not total_failures
               else f"{total_failures} failure(s)")
        )
    return 1 if total_failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import InstanceCorpus

    corpus = InstanceCorpus(cache_dir=args.dir, max_bytes=args.max_bytes)
    if corpus.cache_dir is None:
        raise ScenarioError(
            "no cache directory: pass --dir or set REPRO_CORPUS_DIR"
        )
    files = corpus.cache_files()
    total = corpus.cache_size_bytes()
    print(f"corpus cache {corpus.cache_dir} — {len(files)} file(s), "
          f"{total / 2**20:.1f} MiB"
          + (f", cap {corpus.max_bytes / 2**20:.1f} MiB"
             if corpus.max_bytes is not None else ", no cap"))
    for path in files:
        try:
            size = path.stat().st_size
        except OSError:
            continue
        print(f"  {size:>12}  {path.name}")
    if args.prune:
        if corpus.max_bytes is None:
            raise ScenarioError(
                "--prune needs a cap: pass --max-bytes or set "
                "REPRO_CORPUS_MAX_BYTES"
            )
        evicted = corpus.prune()
        print(f"pruned {len(evicted)} file(s), "
              f"{corpus.cache_size_bytes() / 2**20:.1f} MiB kept")
        for path in evicted:
            print(f"  evicted {path.name}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ColoringService, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_max_bytes=args.cache_bytes,
        batch_window_ms=args.batch_window_ms,
        max_upload_edges=args.max_upload_edges,
        fault_injection=args.fault_injection,
    )

    async def _serve() -> None:
        service = ColoringService(config)
        host, port = await service.start()
        # the e2e harness parses this line to find an ephemeral port
        print(f"repro-serve listening on {host}:{port}", flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_campaign(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed mid-print (e.g. `repro list | head`); exit quietly
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
