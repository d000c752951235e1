"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door for trying the realizers without
writing a script:

* ``info --n 64`` — show the NCC model parameters for an n-node network;
* ``realize --degrees 3,3,2,2,2 [--explicit] [--envelope]`` — degree
  sequence realization (Algorithm 3 / Theorems 11-13);
* ``tree --degrees 3,2,2,1,1,1 [--variant min|max]`` — tree realization
  (Algorithms 4/5);
* ``connectivity --rho 3,2,2,1,1 [--model ncc0|ncc1]`` — connectivity
  thresholds (Theorems 17/18);
* ``approx --degrees 4,4,4,4,4,4 [--repairs 2]`` — the Õ(1) approximate
  realizer;
* ``scenarios`` — list the named workload scenarios of the service
  registry;
* ``serve`` — long-lived JSONL service on stdin/stdout (``serve <
  requests.jsonl`` drains a file) that streams in both modes: requests
  enter the executor as their lines arrive and responses are emitted
  in input order as they complete (``--mode processes --workers N``
  runs the misses across worker processes, each with its own warm
  network pool; ``sequential``, the default, runs them one at a time
  in-process); with ``--port`` it serves multi-client TCP instead
  (stdin/stdout is one more connection of the same server code), with
  bounded admission (``--window``: stdio waits for room, a socket gets
  typed ``ADMISSION_REJECTED`` overflow responses); requests may carry a
  ``deadline_ms`` wall-clock budget (typed ``DEADLINE_EXCEEDED``), and
  ``--hang-timeout`` arms the processes-mode watchdog (typed
  ``WORKER_TIMEOUT``); ``--trace-out`` collects request-scoped traces
  and ``--metrics-port`` exposes the Prometheus exposition over HTTP;
  ``--journal PATH`` arms the write-ahead request journal (crash
  recovery, idempotent exactly-once replay, client session resume) and
  ``--supervise`` runs the socket server as a respawned-on-crash child;
* ``profile sorting --n 256 [--top 25] [--sort-by cumulative]`` — run a
  registry scenario under ``cProfile`` and print the hottest functions,
  so perf work starts from data instead of guesses.

The four realizer subcommands run the service's request path: each
builds a :class:`~repro.service.api.RealizationRequest`, runs it with
:func:`~repro.service.executor.run_request` and prints the verdict,
edge count and round/message costs from the response (a request the
service rejects, or a run that fails, prints one ``ERROR:`` line and
exits 1).  ``--sort-fidelity`` picks the request's sorting fidelity;
the CLI defaults to ``full``, the paper's round-by-round costs, where
the service defaults to ``charged``.  The protocol-running commands
accept ``--engine {fast,reference}`` to select the round-execution
engine (``fast`` is the default; both are bit-identical, see
``repro/ncc/engine.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.ncc.config import NCCConfig
from repro.ncc.network import Network


#: The executor's drain modes (``repro.service.executor.EXECUTOR_MODES``),
#: spelled out so that building the parser never imports the service
#: stack.
_MODES = ("sequential", "processes")


def _parse_ints(text: str) -> List[int]:
    try:
        values = [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise SystemExit(f"could not parse integer list: {text!r}")
    if not values:
        raise SystemExit(
            f"empty integer list: {text!r} (expected comma-separated "
            "integers, e.g. 3,3,2,2)"
        )
    return values


def _make_net(n: int, args) -> Network:
    return Network(
        n, NCCConfig(seed=args.seed, engine=getattr(args, "engine", "fast"))
    )


def _report(net: Network, prefix: str) -> None:
    stats = net.stats()
    print(f"{prefix}: {stats.rounds} rounds "
          f"({stats.simulated_rounds} simulated + {stats.charged_rounds} charged), "
          f"{stats.messages} messages")
    per_phase = stats.phase_rounds()
    if per_phase:
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(per_phase.items()))
        print(f"  phase breakdown: {breakdown}")


def cmd_info(args) -> int:
    net = _make_net(args.n, args)
    print(f"NCC0 network, n={args.n}")
    print(f"  ID space: [1, {net.ids.universe}]")
    print(f"  per-round caps: send {net.send_cap}, receive {net.recv_cap}")
    print(f"  message budget: {net.config.max_words} words of {net.word_bits} bits")
    print(f"  initial knowledge: directed path Gk")
    return 0


def cmd_realizer(args) -> int:
    """``realize``, ``tree``, ``connectivity`` and ``approx``: build the
    subcommand's request, run it through the service's request path on
    a network this command owns, and print its verdict line and costs."""
    from repro.service import RealizationRequest, ServiceError, run_request

    try:
        request = RealizationRequest.from_dict(dict(
            seed=args.seed, engine=args.engine,
            sort_fidelity=args.sort_fidelity, **args.fields(args),
        ))
    except ServiceError as exc:
        print(f"ERROR: {exc}")
        return 1
    net = Network(request.size, request.config())
    response = run_request(request, net)
    if response.error is not None:
        print(f"ERROR: {response.error}")
        return 1
    detail = dict(response.detail)
    realized_line, unrealizable_line = args.lines
    print((realized_line if response.ok else unrealizable_line).format(
        num_edges=response.num_edges,
        explicitness="explicit" if detail.get("explicit") else "implicit",
        **detail,
    ))
    _report(net, "cost")
    return 0 if response.ok else 1


# ---------------------------------------------------------------------- #
# Service front ends                                                    #
# ---------------------------------------------------------------------- #


def _make_executor(args, tracer=None, journal=None):
    from repro.service import BatchExecutor, NetworkPool

    try:
        return BatchExecutor(
            pool=NetworkPool(),
            mode=args.mode,
            workers=args.workers,
            hang_timeout=getattr(args, "hang_timeout", None),
            tracer=tracer,
            journal=journal,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_scenarios(args) -> int:
    from repro.service import DEFAULT_REGISTRY

    print(f"{'name':<18} {'kind':<16} description")
    for scenario in DEFAULT_REGISTRY:
        kind = "(profile only)" if scenario.is_primitive else scenario.kind
        print(f"{scenario.name:<18} {kind:<16} {scenario.description}")
    return 0


def _serve_child_argv(args) -> List[str]:
    """Rebuild the ``serve`` argv for a supervised child process.

    Reconstructed from the parsed namespace (not ``sys.argv``), minus
    the supervision flags themselves.
    """
    argv = [sys.executable, "-m", "repro", "--seed", str(args.seed), "serve",
            "--mode", args.mode, "--workers", str(args.workers),
            "--host", args.host, "--port", str(args.port)]
    if args.window is not None:
        argv += ["--window", str(args.window)]
    if args.hang_timeout is not None:
        argv += ["--hang-timeout", str(args.hang_timeout)]
    if args.trace_out is not None:
        argv += ["--trace-out", args.trace_out, "--trace-format", args.trace_format]
    if args.metrics_port is not None:
        argv += ["--metrics-port", str(args.metrics_port)]
    if args.journal is not None:
        argv += ["--journal", args.journal, "--fsync", args.fsync]
    return argv


def cmd_serve(args) -> int:
    from repro.service.executor import validate_window
    from repro.service.server import serve, serve_socket

    try:
        window = validate_window(args.window)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.port is not None and not 0 <= args.port <= 65535:
        raise SystemExit(f"--port must be in 0..65535, got {args.port}")
    if args.metrics_port is not None and not 0 <= args.metrics_port <= 65535:
        raise SystemExit(
            f"--metrics-port must be in 0..65535, got {args.metrics_port}"
        )
    if args.supervise:
        from repro.service.supervise import supervise_loop, supervisor_policy

        if args.port is None:
            raise SystemExit(
                "--supervise requires --port: the supervisor and a "
                "respawned child cannot share one stdin/stdout stream"
            )
        if args.max_restarts < 0:
            raise SystemExit(
                f"--max-restarts must be >= 0, got {args.max_restarts}"
            )
        return supervise_loop(
            _serve_child_argv(args),
            policy=supervisor_policy(seed=args.seed),
            max_restarts=args.max_restarts,
        )
    tracer = None
    if args.trace_out is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    journal = None
    sessions = None
    if args.journal is not None:
        from repro.service.journal import JournalError, RequestJournal

        try:
            journal = RequestJournal(args.journal, fsync=args.fsync)
        except (JournalError, OSError, ValueError) as exc:
            raise SystemExit(f"cannot open journal: {exc}")
    executor = _make_executor(args, tracer=tracer, journal=journal)
    if journal is not None:
        # Recovery happens before any socket binds: admitted-but-not-
        # completed requests from a crashed predecessor are re-executed
        # exactly once, and resuming sessions get their replay buffers.
        sessions = executor.recover_journal()
        recovery = journal.stats()
        print(
            f"serve[{executor.mode}]: journal {args.journal} recovered "
            f"{recovery['recovered_records']} record(s), "
            f"{recovery['recovered_incomplete']} re-executed, "
            f"{len(sessions)} session(s)"
            + (
                f", torn tail truncated ({recovery['truncated_bytes']} bytes)"
                if recovery["torn_tail"]
                else ""
            ),
            file=sys.stderr, flush=True,
        )
    metrics_httpd = None
    if args.metrics_port is not None:
        from repro.obs import start_metrics_http

        try:
            metrics_httpd, _ = start_metrics_http(
                executor.metrics, args.metrics_port
            )
        except OSError as exc:
            executor.close()
            raise SystemExit(f"cannot bind --metrics-port: {exc}")
        print(
            f"serve[{executor.mode}]: metrics on "
            f"http://127.0.0.1:{metrics_httpd.server_address[1]}/metrics",
            file=sys.stderr, flush=True,
        )

    def ready(server) -> None:
        # Machine-parseable (the CI smoke and tests scrape it): with
        # --port 0 this is how callers learn the bound port.
        print(
            f"serve[{executor.mode}]: listening on {server.host}:{server.port}",
            file=sys.stderr, flush=True,
        )

    try:
        if args.port is None:
            handled, errors = serve(sys.stdin, sys.stdout, executor, window=window)
        else:
            handled, errors = serve_socket(
                executor, host=args.host, port=args.port, window=window,
                ready=ready, sessions=sessions,
            )
    finally:
        executor.close()
        if metrics_httpd is not None:
            metrics_httpd.shutdown()
            metrics_httpd.server_close()
    if journal is not None:
        # Clean drain: every admitted request has its completed record,
        # so compaction shrinks the journal to the replay/session tail.
        journal.compact()
        jstats = journal.stats()
        journal.close()
        print(
            f"serve[{executor.mode}]: journal compacted "
            f"({jstats['replay_keys']} replay key(s), "
            f"{jstats['sessions']} session tail(s), "
            f"{jstats['incomplete']} incomplete)",
            file=sys.stderr,
        )
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_trace_jsonl

        roots = tracer.drain()
        write = (
            write_trace_jsonl if args.trace_format == "jsonl" else write_chrome_trace
        )
        try:
            with open(args.trace_out, "w") as handle:
                write(roots, handle)
        except OSError as exc:
            raise SystemExit(f"cannot write trace file: {exc}")
        print(
            f"serve[{executor.mode}]: wrote {len(roots)} trace(s) to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    print(
        f"serve[{executor.mode}]: emitted {handled} response(s), "
        f"{errors} error(s)",
        file=sys.stderr,
    )
    return 1 if errors else 0


# ---------------------------------------------------------------------- #
# Profiling                                                              #
# ---------------------------------------------------------------------- #

#: Pre-registry profile names kept as aliases into the scenario registry.
PROFILE_ALIASES = {"realize": "random_graphic", "tree": "tree_random"}


def cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro.service import DEFAULT_REGISTRY, RealizationRequest, ServiceError, run_request

    name = PROFILE_ALIASES.get(args.workload, args.workload)
    # The workload and its parameters are validated here rather than via
    # argparse choices so that building the parser never imports the
    # service stack.
    try:
        scenario = DEFAULT_REGISTRY.get(name)
        request = None
        if not scenario.is_primitive:
            request = RealizationRequest.from_dict(dict(
                kind=scenario.kind,
                scenario=name,
                n=args.n,
                seed=args.seed,
                engine=getattr(args, "engine", "fast"),
                sort_fidelity="full",
                # Matches realize_tree's default, which the pre-registry
                # profile runner used (the service default is min).
                tree_variant="max_diameter",
            ))
    except ServiceError as exc:
        raise SystemExit(str(exc))
    profiler = cProfile.Profile()
    if scenario.is_primitive:
        net = _make_net(args.n, args)
        profiler.enable()
        scenario.runner(net, args.n, args.seed)
        profiler.disable()
    else:
        net = Network(request.size, request.config())
        profiler.enable()
        response = run_request(request, net)
        profiler.disable()
        if response.error:
            raise SystemExit(f"profile workload failed: {response.error}")
    print(f"profile: {args.workload} (n={args.n}, seed={args.seed})")
    _report(net, "cost")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort_by).print_stats(args.top)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Graph Realizations (IPDPS 2020) — CLI",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine(p) -> None:
        from repro.ncc.engine import engine_names

        p.add_argument(
            "--engine",
            choices=engine_names(),
            default="fast",
            help="round-execution engine (bit-identical; fast is the default)",
        )

    p = sub.add_parser("info", help="show NCC model parameters")
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(fn=cmd_info)

    def add_realizer(p, fields, lines) -> None:
        # ``fields(args)`` gives the subcommand's request fields; ``lines``
        # are the verdict lines for an ok and a not-ok response.
        p.add_argument(
            "--sort-fidelity", choices=("full", "charged"), default="full",
            help="full = sort round by round (the paper's costs; the "
            "default here), charged = charge sorting's rounds without "
            "simulating them (the service's default)",
        )
        add_engine(p)
        p.set_defaults(fn=cmd_realizer, fields=fields, lines=lines)

    p = sub.add_parser("realize", help="degree-sequence realization")
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    p.add_argument("--explicit", action="store_true")
    p.add_argument("--envelope", action="store_true")
    add_realizer(p, lambda a: dict(
        kind="degree_envelope" if a.envelope
        else "degree_explicit" if a.explicit else "degree_implicit",
        degrees=_parse_ints(a.degrees), explicit_envelope=a.explicit,
    ), ("REALIZED: {num_edges} edges in {phases} phases ({explicitness})",
        "UNREALIZABLE (announced by {announced_by} node(s))"))

    p = sub.add_parser("tree", help="tree realization")
    p.add_argument("--degrees", required=True)
    p.add_argument("--variant", choices=("min", "max"), default="min")
    add_realizer(p, lambda a: dict(
        kind="tree", degrees=_parse_ints(a.degrees), tree_variant=a.variant,
    ), ("REALIZED tree: {num_edges} edges, diameter {diameter} ({variant})",
        "UNREALIZABLE as a tree (need sum d = 2(n-1), all d >= 1)"))

    p = sub.add_parser("connectivity", help="connectivity thresholds")
    p.add_argument("--rho", required=True, help="comma-separated thresholds")
    p.add_argument("--model", choices=("ncc0", "ncc1"), default="ncc0")
    add_realizer(p, lambda a: dict(
        kind="connectivity", degrees=_parse_ints(a.rho), model=a.model,
    ), ("REALIZED: {num_edges} edges (lower bound {lower_bound_edges}, "
        "ratio {approximation_ratio:.2f} <= 2, {explicitness})", None))

    p = sub.add_parser("approx", help="Õ(1) approximate realization")
    p.add_argument("--degrees", required=True)
    p.add_argument("--repairs", type=int, default=0)
    add_realizer(p, lambda a: dict(
        kind="approximate", degrees=_parse_ints(a.degrees), repairs=a.repairs,
    ), ("APPROXIMATED: {num_edges} edges, L1 shortfall {l1_error} "
        "({relative_error:.1%} of demand), {self_pairs} self-pairs, "
        "{duplicate_pairs} duplicate pairs dropped", None))

    p = sub.add_parser("scenarios", help="list named workload scenarios")
    p.set_defaults(fn=cmd_scenarios)

    p = sub.add_parser(
        "serve",
        help="long-lived JSONL service on stdin/stdout (default) or, "
        "with --port, a multi-client TCP socket server",
    )
    p.add_argument(
        "--mode",
        choices=_MODES,
        default="sequential",
        help="where cache misses run: sequential = one at a time on "
        "the in-process lane, processes = across --workers worker "
        "processes.  Both stream: each line is submitted as it is "
        "read and responses are emitted, in input order, as they "
        "complete",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="worker processes for --mode processes (default %(default)s)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for the socket server (with --port)",
    )
    p.add_argument(
        "--port", type=int, default=None,
        help="serve JSONL over TCP on this port instead of stdin/stdout "
        "(0 = ephemeral; the bound address is printed to stderr)",
    )
    p.add_argument(
        "--window", type=int, default=None,
        help="in-flight backpressure window (>= 1; default "
        "%(default)s -> module default): on stdin/stdout the reader "
        "waits for room at the window, a socket connection is "
        "rejected with error_code=ADMISSION_REJECTED",
    )
    p.add_argument(
        "--hang-timeout", type=float, default=None,
        help="processes mode: kill and replace a worker whose request "
        "runs longer than this many seconds even without a deadline_ms "
        "(typed WORKER_TIMEOUT; default: off, deadlines still enforced)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable request-scoped tracing and write the collected "
        "traces to PATH at shutdown (--trace-format selects the format)",
    )
    p.add_argument(
        "--trace-format", choices=("chrome", "jsonl"), default="chrome",
        help="trace file format for --trace-out: Chrome trace_event JSON "
        "(load in chrome://tracing / Perfetto) or one span tree per "
        "line (default %(default)s)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also expose the Prometheus text exposition on "
        "http://127.0.0.1:PORT/metrics (0 = ephemeral; the bound "
        "address is printed to stderr).  The same text is also "
        "available in-band via a {\"kind\": \"metrics\"} request line",
    )
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead request journal: every admission and "
        "completion is logged (CRC-checked) so a crash-restarted "
        "server recovers in-flight work and answers duplicate "
        "idempotency_key submissions exactly once",
    )
    p.add_argument(
        "--fsync", choices=("never", "batch", "always"), default="batch",
        help="journal fsync policy (default %(default)s): never = OS "
        "flush only, batch = fsync every 32 records plus barriers, "
        "always = fsync per record.  SIGKILL loses nothing at any "
        "policy; the policy only bounds the power-loss window",
    )
    p.add_argument(
        "--max-restarts", type=int, default=5,
        help="supervision: give up after this many crash respawns "
        "(default %(default)s; seeded exponential backoff between "
        "respawns)",
    )
    p.add_argument(
        "--supervise", action="store_true",
        help="run the server as a supervised child process (requires "
        "--port): a crash or SIGKILL respawns it with bounded backoff, "
        "and with --journal the restart recovers in-flight requests",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("profile", help="profile a workload under cProfile")
    p.add_argument(
        "workload",
        help="a scenario name from `python -m repro scenarios` "
        "(plus legacy aliases: realize, tree)",
    )
    p.add_argument("--n", type=int, default=256, help="network size")
    p.add_argument("--top", type=int, default=25, help="hotspots to print")
    p.add_argument(
        "--sort-by",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort column",
    )
    add_engine(p)
    p.set_defaults(fn=cmd_profile)
    return parser


def main(argv=None) -> int:
    sys.setrecursionlimit(200_000)
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
