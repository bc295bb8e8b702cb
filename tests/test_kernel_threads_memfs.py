"""Unit tests for the MemFs raw interface."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Node
from repro.errors import Eisdir, Enoent
from repro.hw.params import HostParams
from repro.kernel import MemFs
from repro.mem import PayloadRef
from repro.sim import Environment
from repro.units import MiB, PAGE_SIZE, us


@pytest.fixture
def node():
    env = Environment()
    return Node(env, 0, HostParams(memory_frames=1024))


# -- MemFs raw interface ----------------------------------------------------------


def test_memfs_raw_read_write(node):
    fs = MemFs(node.env, node.cpu)
    attrs = node.env.run(until=node.env.process(fs.create(1, "f")))
    assert fs.write_raw(attrs.inode_id, 10, b"abc") == 3
    assert fs.read_raw(attrs.inode_id, 0, 13) == bytes(10) + b"abc"
    assert fs.read_raw(attrs.inode_id, 11, 100) == b"bc"


def test_memfs_raw_rejects_directories(node):
    fs = MemFs(node.env, node.cpu)
    with pytest.raises(Eisdir):
        fs.read_raw(1, 0, 10)  # root is a directory


def test_memfs_lookup_missing_raises(node):
    env = node.env
    fs = MemFs(env, node.cpu)
    with pytest.raises(Enoent):
        env.run(until=env.process(fs.lookup(1, "ghost")))


def test_memfs_disk_latency_charged_on_first_touch_only(node):
    env = node.env
    fs = MemFs(env, node.cpu, disk_latency_ns=us(5000))
    attrs = env.run(until=env.process(fs.create(1, "f")))
    fs.write_raw(attrs.inode_id, 0, b"x" * 4096)
    frame = node.phys.alloc()

    t0 = env.now
    env.run(until=env.process(fs.readpage(attrs.inode_id, 0, frame)))
    cold = env.now - t0
    t1 = env.now
    env.run(until=env.process(fs.readpage(attrs.inode_id, 0, frame)))
    warm = env.now - t1
    assert cold >= us(5000)
    assert warm < us(100)


# -- MemFs page map --------------------------------------------------------------


def _new_file():
    env = Environment()
    node = Node(env, 0, HostParams(memory_frames=64))
    fs = MemFs(env, node.cpu)
    attrs = env.run(until=env.process(fs.create(1, "f")))
    return node, fs, attrs.inode_id


_lengths = st.integers(0, 2 * PAGE_SIZE + 100)


@st.composite
def _bytes(draw):
    """All zeros, all non-zero, or zeros with one non-zero byte."""
    n = draw(_lengths)
    kind = draw(st.sampled_from(["zero", "fill", "sparse"]))
    if kind == "zero" or n == 0:
        return bytes(n)
    fill = draw(st.integers(1, 255))
    if kind == "fill":
        return bytes([fill]) * n
    data = bytearray(n)
    data[draw(st.integers(0, n - 1))] = fill
    return bytes(data)


@st.composite
def _payload(draw):
    """Plain bytes, or a PayloadRef whose chunks (some of them views)
    may span page boundaries."""
    if draw(st.booleans()):
        return draw(_bytes())
    chunks = draw(st.lists(_bytes(), min_size=1, max_size=4))
    views = draw(st.lists(st.booleans(), min_size=len(chunks),
                          max_size=len(chunks)))
    return PayloadRef.from_chunks(
        memoryview(c).toreadonly() if v else c for c, v in zip(chunks, views))


_sizes = st.integers(0, 6 * PAGE_SIZE)
_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 4 * PAGE_SIZE + 100), _payload()),
    st.tuples(st.just("truncate_raw"), _sizes, st.none()),
    st.tuples(st.just("truncate"), _sizes, st.none()),
    st.tuples(st.just("read"), st.integers(0, 7 * PAGE_SIZE), _lengths),
    st.tuples(st.just("writepage"), st.integers(0, 5),
              _bytes().map(lambda data: data[:PAGE_SIZE])),
    st.tuples(st.just("readpage"), st.integers(0, 7), st.none()),
)


@given(ops=st.lists(_ops, max_size=25))
@settings(max_examples=150, deadline=None)
def test_memfs_page_map_matches_a_dense_model(ops):
    node, fs, inode = _new_file()
    env = node.env
    model = bytearray()
    for op, a, b in ops:
        if op in ("write", "writepage"):
            data = b.tobytes() if isinstance(b, PayloadRef) else b
            offset = a * PAGE_SIZE if op == "writepage" else a
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset : offset + len(data)] = data
            if op == "write":
                assert fs.write_raw(inode, a, b) == len(data)
            else:
                frame = node.phys.alloc()
                frame.write(0, data)
                env.run(until=env.process(
                    fs.writepage(inode, a, frame, len(data))))
                node.phys.free(frame)
        elif op == "read":
            assert fs.read_raw(inode, a, b) == bytes(model[a : a + b])
        elif op == "readpage":
            frame = node.phys.alloc()
            frame.write(0, b"\xff" * PAGE_SIZE)  # stale page-cache bytes
            n = env.run(until=env.process(fs.readpage(inode, a, frame)))
            page = bytes(model[a * PAGE_SIZE : (a + 1) * PAGE_SIZE])
            assert n == len(page)
            assert frame.read(0, PAGE_SIZE) == page.ljust(PAGE_SIZE, b"\0")
            node.phys.free(frame)
        else:
            if a < len(model):
                del model[a:]
            else:
                model.extend(bytes(a - len(model)))
            if op == "truncate":
                env.run(until=env.process(fs.truncate(inode, a)))
            else:
                fs.truncate_raw(inode, a)
        attrs = env.run(until=env.process(fs.getattr(inode)))
        assert attrs.size == len(model)
        assert fs.read_raw(inode, 0, len(model) + PAGE_SIZE) == bytes(model)
        # Storage exactly where a page holds a non-zero byte.
        nonzero = {i // PAGE_SIZE for i in range(0, len(model), PAGE_SIZE)
                   if any(model[i : i + PAGE_SIZE])}
        assert set(fs._file(inode).pages) == nonzero


def test_memfs_truncate_raw_of_64_mib_stores_nothing():
    node, fs, inode = _new_file()
    env = node.env
    fs.truncate_raw(inode, 64 * MiB)
    assert fs._file(inode).pages == {}
    attrs = env.run(until=env.process(fs.getattr(inode)))
    assert attrs.size == 64 * MiB
    for offset in (0, 32 * MiB - 100, 64 * MiB - PAGE_SIZE):
        assert fs.read_raw(inode, offset, 2 * PAGE_SIZE) == bytes(
            min(2 * PAGE_SIZE, 64 * MiB - offset))
    assert fs.read_raw(inode, 64 * MiB, 10) == b""
