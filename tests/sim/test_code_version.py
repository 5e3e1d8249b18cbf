"""The code digest that keys the result cache.

``code_version`` is the soundness anchor of the cache: if any tracked
source byte can change without changing the digest, stale results
survive a model change.  These tests pin the three properties the cache
contract needs — sensitivity to every byte, independence from
enumeration order and checkout path, and per-process memo repopulation
in spawned workers (the blessed global write).
"""

import multiprocessing
from pathlib import Path

from repro.sim import cache as cache_module
from repro.sim.cache import (
    _digest_sources,
    cache_schema,
    code_version,
    config_key,
)
from repro.sim.workload import SimConfig


def _scratch_tree(root: Path, files: dict) -> Path:
    tree = root / "pkg"
    for name, text in files.items():
        path = tree / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tree

FILES = {
    "model.py": "RATE = 1.0\n",
    "des/engine.py": "def step():\n    return 1\n",
    "des/__init__.py": "",
}


# -- byte sensitivity ---------------------------------------------------------


def test_digest_changes_when_any_byte_changes(tmp_path):
    base = code_version(root=_scratch_tree(tmp_path / "a", FILES))
    for name in FILES:
        mutated = dict(FILES)
        mutated[name] += "#x\n"
        changed = code_version(root=_scratch_tree(tmp_path / name, mutated))
        assert changed != base, f"edit to {name} must invalidate the digest"


def test_digest_changes_when_a_file_is_added_or_removed(tmp_path):
    base = code_version(root=_scratch_tree(tmp_path / "a", FILES))
    grown = dict(FILES, **{"extra.py": ""})
    assert code_version(root=_scratch_tree(tmp_path / "b", grown)) != base
    shrunk = {k: v for k, v in FILES.items() if k != "model.py"}
    assert code_version(root=_scratch_tree(tmp_path / "c", shrunk)) != base


def test_digest_sees_renames_not_just_contents(tmp_path):
    # Same bytes under a different relative name is a different tree.
    base = code_version(root=_scratch_tree(tmp_path / "a", FILES))
    renamed = {("model2.py" if k == "model.py" else k): v
               for k, v in FILES.items()}
    assert code_version(root=_scratch_tree(tmp_path / "b", renamed)) != base


# -- order and path independence ----------------------------------------------


def test_digest_is_independent_of_creation_order(tmp_path):
    forward = _scratch_tree(tmp_path / "fwd", FILES)
    reversed_tree = _scratch_tree(
        tmp_path / "rev", dict(reversed(list(FILES.items()))))
    assert code_version(root=forward) == code_version(root=reversed_tree)


def test_digest_is_independent_of_checkout_path(tmp_path):
    shallow = _scratch_tree(tmp_path / "a", FILES)
    deep = _scratch_tree(tmp_path / "some" / "other" / "prefix", FILES)
    assert code_version(root=shallow) == code_version(root=deep)


def test_digest_sources_is_order_sensitive_so_callers_must_sort(tmp_path):
    # The helper hashes in the order given; the order-independence of
    # code_version comes from its sorted() call, not from the digest.
    tree = _scratch_tree(tmp_path, FILES)
    sources = sorted(tree.rglob("*.py"))
    assert (_digest_sources(tree, sources)
            != _digest_sources(tree, list(reversed(sources))))


def test_package_digest_is_memoised_and_stable():
    cache_module._code_version_cache.clear()
    first = code_version()
    assert cache_module._code_version_cache["digest"] == first
    assert code_version() == first
    assert len(first) == 64  # sha256 hex


def test_root_override_does_not_touch_the_memo(tmp_path):
    cache_module._code_version_cache.clear()
    code_version(root=_scratch_tree(tmp_path, FILES))
    assert cache_module._code_version_cache == {}


# -- spawned workers -----------------------------------------------------------


def _spawn_probe(_):
    """Worker body: report whether the memo started empty, then the
    digest it computed.  Must be module-level so spawn can pickle it."""
    started_empty = not cache_module._code_version_cache
    return started_empty, code_version()


def test_memo_repopulates_identically_in_spawned_workers():
    # The declared exception to worker hermeticity: every spawned process
    # starts with an empty memo and recomputes the *identical* digest, so
    # the global write cannot change any result.
    parent = code_version()
    context = multiprocessing.get_context("spawn")
    # One task per worker process: a worker that served the first probe
    # would start the second with its own memo already filled.
    with context.Pool(2, maxtasksperchild=1) as pool:
        reports = pool.map(_spawn_probe, range(2), chunksize=1)
    for started_empty, digest in reports:
        assert started_empty, "spawned worker must not inherit the memo"
        assert digest == parent


# -- the key folds schema and format ------------------------------------------


def test_config_key_changes_with_cache_schema(monkeypatch):
    config = SimConfig(num_disks=1, seed=3)
    base = config_key(config, version="v")
    widened = cache_schema()
    widened["result"] = widened["result"] + ["new_metric"]
    monkeypatch.setattr(cache_module, "cache_schema", lambda: widened)
    assert config_key(config, version="v") != base


def test_config_key_changes_with_cache_format(monkeypatch):
    config = SimConfig(num_disks=1, seed=3)
    base = config_key(config, version="v")
    monkeypatch.setattr(cache_module, "CACHE_FORMAT",
                        cache_module.CACHE_FORMAT + 1)
    assert config_key(config, version="v") != base
