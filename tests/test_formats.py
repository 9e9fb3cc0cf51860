"""The artifact format: arrays.bin, raw little-endian float64 in sorted
name order, with the shapes that meta.json records under "arrays"."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossimpact.formats import load_artifact, save_artifact
from crossimpact.kernels import ImpactKernel, load_kernel, save_kernel
from crossimpact.observables import (ObservableSet, load_observables,
                                     omega_aggregates, save_observables)

# every finite double: subnormals, -0.0 and both ends of the range
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# entries of the observables' lags, small enough that a shift of
# omega(0)'s diagonal keeps the aggregate positive definite
UNIT = st.floats(-1.0, 1.0)


@st.composite
def kernels(draw):
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(0, 40))
    return ImpactKernel(
        delta=draw(st.floats(1e-3, 1e3)),
        values=draw(hnp.arrays(float, (n + 1, d, d), elements=FINITE)),
        lam=draw(hnp.arrays(float, (d, d), elements=FINITE)),
        provenance=draw(st.sampled_from(["k1", "k2", "analytic"])),
        grid=draw(st.integers(1, 4096)),
        diagnostics={"tail_error": draw(FINITE)})


@st.composite
def observable_sets(draw):
    d = draw(st.integers(1, 5))
    tau_max = draw(st.integers(0, 12))
    omega = draw(hnp.arrays(float, (tau_max + 1, d, d), elements=UNIT))
    omega[0] += 2.0 * d * (tau_max + 1) * np.eye(d)
    zero, inf = omega_aggregates(omega)
    return ObservableSet(
        sigma=draw(hnp.arrays(float, (d, d), elements=FINITE)),
        omega=omega, omega_zero=zero, omega_inf=inf,
        delta=draw(st.floats(1e-3, 1e3)),
        n_days=draw(st.integers(1, 50)), n_bins=draw(st.integers(1, 10**6)))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestRoundTrip:
    @given(kernels())
    @settings(max_examples=60, deadline=None)
    def test_kernel_bit_for_bit(self, tmp_path_factory, kernel):
        first, second = (tmp_path_factory.mktemp("k") for _ in range(2))
        save_kernel(first, kernel)
        back = load_kernel(first)
        assert same_bits(back.values, kernel.values)
        assert same_bits(back.lam, kernel.lam)
        assert (back.delta, back.grid, back.provenance, back.tail_tol,
                back.diagnostics) == (kernel.delta, kernel.grid,
                                      kernel.provenance, kernel.tail_tol,
                                      kernel.diagnostics)
        assert back.values.flags.writeable and back.lam.flags.writeable
        save_kernel(second, kernel)
        assert tree(second) == tree(first)
        blob = np.concatenate([kernel.lam.ravel(), kernel.values.ravel()])
        assert (first / "arrays.bin").read_bytes() == \
            blob.astype("<f8").tobytes()

    @given(observable_sets())
    @settings(max_examples=40, deadline=None)
    def test_observables_bit_for_bit(self, tmp_path_factory, obs):
        first, second = (tmp_path_factory.mktemp("obs") for _ in range(2))
        save_observables(first, obs)
        back = load_observables(first)
        for name in ("sigma", "omega", "omega_zero", "omega_inf"):
            assert same_bits(getattr(back, name), getattr(obs, name)), name
        assert (back.delta, back.n_days, back.n_bins) == \
            (obs.delta, obs.n_days, obs.n_bins)
        save_observables(second, obs)
        assert tree(second) == tree(first)

    def test_meta_records_sorted_shapes(self, tmp_path):
        # alpha is stored in C order though it is given in Fortran order
        alpha = np.arange(6.0).reshape(3, 2).T
        save_artifact(tmp_path, {"delta": 1.0}, zeta=np.ones(3), alpha=alpha,
                      mid=np.float64(7))
        meta, arrays = load_artifact(tmp_path)
        assert meta["arrays"] == {"alpha": [2, 3], "mid": [], "zeta": [3]}
        assert (tmp_path / "arrays.bin").read_bytes() == \
            np.array([0, 2, 4, 1, 3, 5, 7, 1, 1, 1], "<f8").tobytes()
        assert np.array_equal(arrays["alpha"], alpha)
        assert list(arrays) == ["alpha", "mid", "zeta"]
        assert arrays["mid"].shape == ()


def saved_kernel(directory):
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    save_kernel(directory, ImpactKernel(
        delta=1.0, values=np.tile(m, (9, 1, 1)), lam=m.copy(), grid=64))
    return directory / "meta.json", directory / "arrays.bin"


class TestRefusals:
    # 9 lags of 2 x 2 and a 2 x 2 lam: 40 doubles, 320 bytes
    @pytest.mark.parametrize("edit, size", [
        pytest.param(lambda blob: blob[:-8], 312, id="one-double-short"),
        pytest.param(lambda blob: blob[:-3], 317, id="three-bytes-short"),
        pytest.param(lambda blob: blob[:0], 0, id="empty"),
        pytest.param(lambda blob: blob + bytes(8), 328, id="8-bytes-long"),
    ])
    def test_byte_count_differs_from_map(self, tmp_path, edit, size):
        _, blob = saved_kernel(tmp_path)
        blob.write_bytes(edit(blob.read_bytes()))
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == (f"{blob} holds {size} bytes, not the 320 "
                                   "that its meta.json describes")

    @pytest.mark.parametrize("shapes", [
        pytest.param({"lam": [2, 2], "values": [9, -2, 2]}, id="negative"),
        pytest.param({"lam": [2, 2], "values": [9, 2.0, 2]}, id="float"),
        pytest.param({"lam": [2, True], "values": [9, 2, 2]}, id="boolean"),
        pytest.param({"lam": [2, 2], "values": "9,2,2"}, id="string"),
        pytest.param({"lam": 4, "values": [9, 2, 2]}, id="int"),
        pytest.param([[2, 2], [9, 2, 2]], id="list"),
        pytest.param(None, id="null"),
    ])
    def test_map_not_of_int_lists(self, tmp_path, shapes):
        meta, _ = saved_kernel(tmp_path)
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()),
                                        arrays=shapes)))
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == (
            f"{meta}: 'arrays' must map each array name to a list of "
            f"non-negative ints, not {shapes!r}")

    def test_old_layout_refused(self, tmp_path):
        # the zip archive of .npy members is not read: its meta.json
        # lacks the map
        meta, _ = saved_kernel(tmp_path)
        old = json.loads(meta.read_text())
        arrays = {name: np.zeros(shape) for name, shape
                  in old.pop("arrays").items()}
        meta.write_text(json.dumps(old))
        for path in tmp_path.iterdir():
            if path.name != "meta.json":
                path.unlink()
        np.savez(tmp_path / "arrays.npz", **arrays)
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == f"{meta} lacks 'arrays'"

    def test_missing_blob_names_it(self, tmp_path):
        _, blob = saved_kernel(tmp_path)
        blob.unlink()
        with pytest.raises(OSError, match=str(blob)):
            load_kernel(tmp_path)
