"""What an import loads, checked in a fresh interpreter.

Every package ``__init__`` resolves its exports on first access
(PEP 562), so importing a package loads none of its submodules and
each command loads only the code it runs.  These tests pin that
layering by module count, not by timing, and check that the lazy
exports still behave like the eager ones they replaced.  Each check
runs in its own interpreter because the test session has already
imported most of ``repro``.
"""

import json
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.core

from ._cli import fresh_env, run_repro


def fresh(code, *args, env=None):
    """Run *code* in a fresh interpreter with ``src`` on the path (in
    *env*, when given); its stdout, decoded as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env if env is not None else fresh_env(),
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(statement):
    """The modules in ``sys.modules`` after *statement* in a fresh
    interpreter."""
    return set(fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    ))


def offenders(modules, packages):
    return sorted(
        module for module in modules
        if any(module == p or module.startswith(p + ".") for p in packages)
    )


PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


class TestLayering:
    def test_import_repro_loads_only_repro(self):
        modules = loaded_after("import repro")
        assert offenders(modules, ["repro"]) == ["repro"]

    def test_detector_loads_no_substrate_and_no_numpy(self):
        modules = loaded_after("from repro.core import SynDog")
        assert "numpy" not in modules
        assert offenders(modules, [f"repro.{name}" for name in (
            "router", "trace", "experiments", "attack", "defense",
            "traceback", "tcpsim", "fastpath", "pcap", "parallel", "faults",
        )]) == []

    def test_detector_loads_exactly_the_per_period_obs_modules(self):
        # With obs off a detector needs only the bundle, whose six
        # component slots hold None: the live metrics, events, recorder,
        # TSDB, alert and profiler modules load when a live bundle is
        # built.
        modules = loaded_after("from repro.core import SynDog; SynDog()")
        assert offenders(modules, ["repro.obs"]) == [
            "repro.obs", "repro.obs.runtime",
        ]

    @pytest.mark.parametrize("module", sorted(
        f"repro.core.{info.name}"
        for info in pkgutil.iter_modules(repro.core.__path__)
    ))
    def test_core_module_loads_no_numpy(self, module):
        # The detector runs on any substrate: no core module needs numpy.
        assert "numpy" not in loaded_after(f"import {module}")

    @pytest.mark.parametrize("statement", [
        "from repro.trace.synthetic import generate_count_trace",
        "import repro.experiments.soak",
    ])
    def test_trace_synthesis_loads_no_numpy(self, statement):
        # Count traces are standard-library code: soak epochs and the
        # checkpoint tests synthesize them where numpy is not installed.
        assert "numpy" not in loaded_after(statement)

    def test_cli_loads_no_command_code_and_no_numpy(self):
        modules = loaded_after("import repro.cli")
        assert "numpy" not in modules
        assert offenders(modules, [
            "repro.obs.server", "repro.obs.analyze", "repro.obs.slo",
            "repro.obs.rollup", "repro.obs.merge", "repro.obs.ledger",
            "repro.router", "repro.defense", "repro.traceback",
            "repro.tcpsim", "repro.experiments.chaos",
        ]) == []


#: What ``repro detect`` on a pcap pair must not load: the live obs
#: stack, the per-packet object pipeline and the traffic and fault models.
NOT_ON_THE_VERDICT_PATH = [
    "repro.obs.alerts", "repro.obs.events", "repro.obs.metrics",
    "repro.obs.profiler", "repro.obs.recorder", "repro.obs.tsdb",
    "repro.packet.packet", "repro.pcap.reader", "repro.trace.arrival",
    "repro.trace.handshake", "repro.faults",
]

DETECT = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["detect", "--pcap-out", sys.argv[1], "--pcap-in", sys.argv[2],
                 "--quiet"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def pcap_pair(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("pair") / "h"
    proc = run_repro(["generate", "--site", "harvard", "--seed", "2",
                      "--duration", "200", "--format", "pcap",
                      "--out", str(prefix)])
    assert proc.returncode == 0, proc.stderr
    return f"{prefix}.out.pcap", f"{prefix}.in.pcap"


class TestDetectStartup:
    def test_pcap_detect_loads_only_the_verdict_path(self, pcap_pair):
        report = fresh(DETECT, *pcap_pair)
        assert report["code"] in (0, 2)
        assert offenders(report["modules"], NOT_ON_THE_VERDICT_PATH) == []

    def test_object_pipeline_gives_the_same_verdict(self, pcap_pair):
        out, inn = pcap_pair
        argv = ["detect", "--pcap-out", out, "--pcap-in", inn, "--quiet"]
        fast = run_repro(argv)
        slow = run_repro([*argv, "--no-fastpath"])
        assert fast.returncode in (0, 2), fast.stderr
        assert (slow.returncode, slow.stdout) == (fast.returncode, fast.stdout)

    @pytest.mark.parametrize("caller, seen", [(None, "1"), ("3", "3")])
    def test_main_defaults_openblas_to_one_thread(self, caller, seen):
        # numpy reads OPENBLAS_NUM_THREADS when it loads, so main() sets
        # it first; a value the caller set wins.
        env = fresh_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        assert fresh(
            "import contextlib, io, json, os\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['theory', '--k-bar', '1922'])\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
            env=env,
        ) == seen


#: The frame codecs, which nothing that reads count traces needs.
PACKET_CODECS = [
    "repro.packet.addresses", "repro.packet.checksum",
    "repro.packet.ethernet", "repro.packet.ip", "repro.packet.packet",
    "repro.packet.tcp", "repro.packet.udp",
]

RUN_CLI = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def count_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("counts") / "bg.csv"
    proc = run_repro(["generate", "--site", "auckland", "--seed", "7",
                      "--duration", "600", "--out", str(path)])
    assert proc.returncode == 0, proc.stderr
    return str(path)


class TestCountStartup:
    @pytest.mark.parametrize("argv", [
        ["observe", "--trace", "{trace}", "--alerts"],
        ["detect", "--counts", "{trace}", "--quiet"],
    ])
    def test_count_commands_load_no_packet_codec(self, count_trace, argv):
        report = fresh(RUN_CLI, *(arg.format(trace=count_trace) for arg in argv))
        assert report["code"] in (0, 2)
        assert offenders(report["modules"], PACKET_CODECS) == []

    def test_count_trace_synthesis_loads_no_packet_codec(self):
        # `repro generate` for counts and every soak epoch synthesize
        # count traces; the codecs serve the packet-trace generator only.
        modules = loaded_after(
            "from repro.trace.synthetic import generate_count_trace"
        )
        assert offenders(modules, PACKET_CODECS) == []

    def test_soak_loads_no_packet_codec(self):
        # A soak floods at count level; the flooder loads the address
        # types and frame codecs only when it builds packets.
        modules = loaded_after("import repro.experiments.soak")
        assert offenders(modules, PACKET_CODECS) == []

    def test_soak_run_builds_no_packet_flooder(self):
        # Count mixing reads only the flood's rate, so a soak run builds
        # no victim address, MAC or spoofer.
        modules = loaded_after(
            "from repro.experiments.soak import run_soak_campaign\n"
            "run_soak_campaign(sim_days=1, workers=1)"
        )
        assert "repro.packet.addresses" not in modules
        assert "repro.attack.spoofing" not in modules


CONTRACT = """
import importlib, json, pkgutil, sys

name = sys.argv[1]
pkg = importlib.import_module(name)
own = set(vars(pkg))
problems = []
loaded = [module for module in sys.modules if module.startswith(name + ".")]
if loaded:
    problems.append(f"importing {name} loaded {sorted(loaded)}")
exported = list(pkg.__all__)
if len(set(exported)) != len(exported):
    problems.append("__all__ has duplicates")
if not set(exported) <= set(dir(pkg)):
    problems.append(f"dir() lacks {sorted(set(exported) - set(dir(pkg)))}")
try:
    pkg.no_such_name
    problems.append("no_such_name resolved")
except AttributeError as exc:
    if str(exc) != f"module {name!r} has no attribute 'no_such_name'":
        problems.append(f"AttributeError message: {exc}")
if hasattr(pkg, "no_such_name"):
    problems.append("hasattr(no_such_name)")
star = {}
exec(f"from {name} import *", star)
submodules = [
    importlib.import_module(f"{name}.{info.name}")
    for info in pkgutil.iter_modules(pkg.__path__)
]
for export in exported:
    if export not in star:
        problems.append(f"import * did not bind {export}")
        continue
    value = getattr(pkg, export)
    if star[export] is not value:
        problems.append(f"import * bound another {export}")
    if export not in own and not any(
        getattr(module, export, None) is value for module in submodules
    ):
        problems.append(f"{export} is not its submodule's object")
print(json.dumps({"exported": len(exported), "problems": problems}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_export_contract(package):
    report = fresh(CONTRACT, package)
    assert report["problems"] == []
    assert report["exported"] > 0


def test_submodules_resolve_as_attributes():
    assert fresh(
        "import json, repro\n"
        "print(json.dumps(repro.obs.tsdb.TimeSeriesDB.__name__))"
    ) == "TimeSeriesDB"
