"""The benchmark calls glmpca from outside, by name.

perfbench/tracing.py wraps glmpca functions and Family methods and puts
the originals back afterwards, and perfbench/workloads.py builds, fits
and checks each workload through the public API.  A rename or deletion
in the package that either still names breaks ``perfbench/run.py``;
these tests catch it in the tier-1 suite.  They read perfbench/ and
change nothing there.
"""

import importlib
import sys
from pathlib import Path

import glmpca
from glmpca.families import Family

from conftest import PERFBENCH


def glmpca_bindings():
    """Every attribute of every loaded glmpca module, and of Family."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "glmpca" or name.startswith("glmpca.")]
    owners.append(Family)
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_install_then_uninstall_restores_glmpca(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # install() imports these itself; load them first so the snapshot
    # below covers every module it patches
    for layer in tracing.MODULE_FUNCTIONS:
        importlib.import_module(f"glmpca.{layer}")
    before = glmpca_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in tracer._patched)
        for meth in tracing.FAMILY_METHODS:
            assert (Family, meth) in patched
    finally:
        tracer.uninstall()
    after = glmpca_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_unresolved_traced_names_are_pinned(monkeypatch):
    # Tracer.install skips a traced name that glmpca no longer defines,
    # so a rename would drop its span without a word: the names left
    # behind by earlier renames are listed here, and any other one that
    # stops resolving, such as optimizer._sweep, whose spans give the
    # sweep counts and times, fails this test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    unresolved = {f"{layer}.{name}"
                  for layer, names in tracing.MODULE_FUNCTIONS.items()
                  for name in names
                  if getattr(importlib.import_module(f"glmpca.{layer}"),
                             name, None) is None}
    assert unresolved == {
        "model.predictor_stats", "model.objective", "model.gradient_u",
        "model.gradient_v", "model.fisher_info_u", "model.fisher_info_v",
        "optimizer.update_u_column", "optimizer.update_v_column",
        "optimizer.full_scoring_A", "optimizer.full_scoring_Gamma",
        "postprocess.orthogonalize", "postprocess.order_dims"}


def test_tiny_workloads_run_clean(tmp_path, monkeypatch):
    # one tiny job of each workload, through the benchmark's own jobs
    # and checks: build_model + fit on instance 0 of the two library
    # workloads, and the CLI's read + build + capped fit of the NB file
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOAD_IDS:
        workdir = tmp_path / name
        workdir.mkdir()
        spec = workloads.generate(name, 1, "tiny", workdir)
        if name == "cli-nb-mtx":
            _, _, result = workloads.cli_in_process(glmpca, Path(spec["mtx"]))
            assert workloads.check_capped_fit(result, None) == []
        else:
            inst = workloads.load_instance(workdir, 0)
            outcome = workloads.fit_job(glmpca, name, inst, None)
            assert outcome.failures == []
