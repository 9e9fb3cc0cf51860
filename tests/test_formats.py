"""The artifact format: artifact.bin, a line of JSON that records each
array's shape under "arrays", then the arrays as raw little-endian
float64 in sorted name order."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossimpact.formats import load_artifact, save_artifact
from crossimpact.kernels import (ImpactKernel, KernelError, load_kernel,
                                 save_kernel)
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


def split_artifact(directory):
    """(header line, payload) of directory's artifact.bin."""
    return (directory / "artifact.bin").read_bytes().split(b"\n", 1)


def edit_header(directory, edit):
    """Replace the header line of directory's artifact.bin with
    edit(header), header the line's JSON and edit's result a text."""
    header, payload = split_artifact(directory)
    (directory / "artifact.bin").write_bytes(
        edit(json.loads(header)).encode() + b"\n" + payload)


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
        assert list(tree(first)) == ["artifact.bin"]
        header, payload = split_artifact(first)
        assert json.loads(header)["arrays"] == {
            "lam": list(kernel.lam.shape), "values": list(kernel.values.shape)}
        blob = np.concatenate([kernel.lam.ravel(), kernel.values.ravel()])
        assert payload == blob.astype("<f8").tobytes()

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
        # one compact line of JSON with sorted keys, then the payload
        assert (tmp_path / "artifact.bin").read_bytes() == \
            b'{"arrays":{"alpha":[2,3],"mid":[],"zeta":[3]},"delta":1.0}\n' + \
            np.array([0, 2, 4, 1, 3, 5, 7, 1, 1, 1], "<f8").tobytes()
        assert np.array_equal(arrays["alpha"], alpha)
        assert list(arrays) == ["alpha", "mid", "zeta"]
        assert arrays["mid"].shape == ()

    def test_equal_inputs_equal_bytes(self, tmp_path):
        # the order in which meta's keys and the arrays are given, and an
        # array's memory order, change no byte
        m = np.arange(6.0).reshape(2, 3)
        save_artifact(tmp_path / "a", {"delta": 1.0, "grid": 8, "x": [1]},
                      lam=m, values=np.ones((2, 1, 1)))
        save_artifact(tmp_path / "b", {"x": [1], "grid": 8, "delta": 1.0},
                      values=np.ones((2, 1, 1)), lam=np.asfortranarray(m))
        assert tree(tmp_path / "a") == tree(tmp_path / "b")
        assert list(tree(tmp_path / "a")) == ["artifact.bin"]


def saved_kernel(directory):
    m = np.array([[0.5, 0.1], [0.1, 0.5]])
    save_kernel(directory, ImpactKernel(
        delta=1.0, values=np.tile(m, (9, 1, 1)), lam=m.copy(), grid=64))
    return directory / "artifact.bin"


class TestRefusals:
    # 9 lags of 2 x 2 and a 2 x 2 lam: 40 doubles, 320 bytes
    @pytest.mark.parametrize("edit, size", [
        pytest.param(lambda blob: blob[:-8], 312, id="one-double-short"),
        pytest.param(lambda blob: blob[:-3], 317, id="three-bytes-short"),
        pytest.param(lambda blob: blob[:0], 0, id="empty"),
        pytest.param(lambda blob: blob + bytes(8), 328, id="8-bytes-long"),
    ])
    def test_byte_count_differs_from_map(self, tmp_path, edit, size):
        path = saved_kernel(tmp_path)
        header, payload = split_artifact(tmp_path)
        path.write_bytes(header + b"\n" + edit(payload))
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == (f"{path} holds {size} bytes after its "
                                   "header, not the 320 that the header "
                                   "describes")

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
        path = saved_kernel(tmp_path)
        edit_header(tmp_path,
                    lambda meta: json.dumps(dict(meta, arrays=shapes)))
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == (
            f"{path}: 'arrays' must map each array name to a list of "
            f"non-negative ints, not {shapes!r}")

    @pytest.mark.parametrize("header", [
        pytest.param(b"{", id="unclosed"),
        pytest.param(b"delta=1.0", id="text"),
        pytest.param(b"\xff\xfe", id="not-utf8"),
    ])
    def test_header_not_json(self, tmp_path, header):
        path = saved_kernel(tmp_path)
        path.write_bytes(header + b"\n" + split_artifact(tmp_path)[1])
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value).startswith(
            f"{path}: its header is not a JSON object: ")

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda header, payload: header, id="header-only"),
        pytest.param(lambda header, payload: b"", id="empty"),
    ])
    def test_no_newline_refused(self, tmp_path, edit):
        # a header, however complete, is one line
        path = saved_kernel(tmp_path)
        path.write_bytes(edit(*split_artifact(tmp_path)))
        with pytest.raises(ValueError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == f"{path} has no newline ending its header"

    @staticmethod
    def old_layout(directory, layout):
        """Rewrite the artifact in directory as an earlier format wrote
        it: meta.json with arrays.bin, or meta.json with arrays.npz."""
        header, payload = split_artifact(directory)
        meta = json.loads(header)
        (directory / "artifact.bin").unlink()
        if layout == "arrays.bin":
            (directory / "arrays.bin").write_bytes(payload)
        else:
            np.savez(directory / "arrays.npz", **{
                name: np.zeros(shape)
                for name, shape in meta.pop("arrays").items()})
        (directory / "meta.json").write_text(json.dumps(meta, indent=1))

    def test_old_layout_refused(self, tmp_path):
        # a directory of meta.json and a zip archive of .npy members is
        # refused, naming the file it lacks
        path = saved_kernel(tmp_path)
        self.old_layout(tmp_path, "arrays.npz")
        with pytest.raises(KernelError) as info:
            load_kernel(tmp_path)
        assert str(info.value) == (f"{tmp_path} is not a kernel directory: "
                                   f"no {path}")

    @pytest.mark.parametrize("layout", ["arrays.bin", "arrays.npz"])
    def test_old_layouts_refused_and_replaced(self, tmp_path, layout):
        path = saved_kernel(tmp_path)
        kernel = load_kernel(tmp_path)
        self.old_layout(tmp_path, layout)
        name = re.escape(str(path))
        for load in (load_artifact, load_observables):
            with pytest.raises(FileNotFoundError, match=name):
                load(tmp_path)
        with pytest.raises(KernelError, match=f"no {name}$"):
            load_kernel(tmp_path)
        # a save into the directory leaves its one file
        save_kernel(tmp_path, kernel)
        assert list(tree(tmp_path)) == ["artifact.bin"]
        assert np.array_equal(load_kernel(tmp_path).values, kernel.values)

    def test_missing_blob_names_it(self, tmp_path):
        path = saved_kernel(tmp_path)
        path.unlink()
        name = re.escape(str(path))
        with pytest.raises(FileNotFoundError, match=name):
            load_artifact(tmp_path)
        with pytest.raises(KernelError, match=f"no {name}$"):
            load_kernel(tmp_path)
