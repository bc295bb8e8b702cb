"""Integration tests: VFS + page cache + MemFs on one node."""

import pytest

from repro.cluster import Node
from repro.errors import Ebadf, Einval, Eisdir, Enoent
from repro.hw.params import HostParams
from repro.kernel import MemFs, OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.sim import Environment
from repro.units import PAGE_SIZE


@pytest.fixture
def node():
    env = Environment()
    node = Node(env, 0, HostParams(memory_frames=4096))
    fs = MemFs(env, node.cpu)
    node.vfs.mount("/", fs)
    return node


def run(node, gen):
    """Drive one VFS operation to completion, returning its value."""
    proc = node.env.process(gen)
    return node.env.run(until=proc)


def write_file(node, path, data):
    def script(env):
        fd = yield from node.vfs.open(path, OpenFlags.RDWR | OpenFlags.CREAT)
        space = node.new_process_space()
        vaddr = space.mmap(max(len(data), PAGE_SIZE))
        space.write_bytes(vaddr, data)
        n = yield from node.vfs.write(fd, UserBuffer(space, vaddr, len(data)))
        yield from node.vfs.close(fd)
        return n

    return run(node, script(node.env))


def read_file(node, path, length, flags=OpenFlags.RDONLY, offset=0):
    def script(env):
        fd = yield from node.vfs.open(path, flags)
        node.vfs.seek(fd, offset)
        space = node.new_process_space()
        vaddr = space.mmap(max(length, PAGE_SIZE))
        n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, length))
        data = space.read_bytes(vaddr, n)
        yield from node.vfs.close(fd)
        return data

    return run(node, script(node.env))


def test_write_then_read_roundtrip(node):
    payload = bytes(range(256)) * 33  # crosses page boundaries
    assert write_file(node, "/f", payload) == len(payload)
    assert read_file(node, "/f", len(payload)) == payload


def test_read_past_eof_truncates(node):
    write_file(node, "/f", b"short")
    assert read_file(node, "/f", 100) == b"short"


def test_read_at_offset(node):
    write_file(node, "/f", b"0123456789")
    assert read_file(node, "/f", 4, offset=3) == b"3456"


def test_open_missing_without_creat_raises(node):
    with pytest.raises(Enoent):
        run(node, node.vfs.open("/nope"))


def test_open_trunc_resets_size(node):
    write_file(node, "/f", b"old-content")

    def script(env):
        fd = yield from node.vfs.open("/f", OpenFlags.RDWR | OpenFlags.TRUNC)
        attrs = yield from node.vfs.stat("/f")
        yield from node.vfs.close(fd)
        return attrs.size

    assert run(node, script(node.env)) == 0


def test_stat_reports_size(node):
    write_file(node, "/f", b"x" * 1234)
    attrs = run(node, node.vfs.stat("/f"))
    assert attrs.size == 1234
    assert not attrs.is_dir


def test_mkdir_and_nested_files(node):
    run(node, node.vfs.mkdir("/dir"))
    write_file(node, "/dir/a", b"A")
    write_file(node, "/dir/b", b"B")
    assert run(node, node.vfs.readdir("/dir")) == ["a", "b"]
    assert read_file(node, "/dir/a", 1) == b"A"


def test_open_directory_raises_eisdir(node):
    run(node, node.vfs.mkdir("/dir"))
    with pytest.raises(Eisdir):
        run(node, node.vfs.open("/dir"))


def test_bad_fd_raises(node):
    with pytest.raises(Ebadf):
        run(node, node.vfs.fsync(999))


def test_dentry_cache_hits_on_repeat_lookup(count, node):
    write_file(node, "/f", b"x")
    run(node, node.vfs.stat("/f"))
    before = count("vfs.dentry.hits")
    misses = count("vfs.dentry.misses")
    run(node, node.vfs.stat("/f"))
    assert count("vfs.dentry.hits") == before + 1
    assert count("vfs.dentry.misses") == misses > 0


def test_second_read_hits_page_cache_and_is_faster(node):
    payload = b"z" * (8 * PAGE_SIZE)
    write_file(node, "/f", payload)
    node.pagecache.invalidate_inode(2)  # force cold start (inode 2 = /f)

    env = node.env
    t0 = env.now
    read_file(node, "/f", len(payload))
    cold = env.now - t0
    t1 = env.now
    read_file(node, "/f", len(payload))
    warm = env.now - t1
    assert warm < cold


def test_odirect_read_roundtrip(node):
    payload = b"D" * (2 * PAGE_SIZE)
    write_file(node, "/f", payload)
    got = read_file(node, "/f", len(payload), flags=OpenFlags.RDONLY | OpenFlags.DIRECT)
    assert got == payload


def test_odirect_misaligned_offset_raises(node):
    write_file(node, "/f", b"x" * PAGE_SIZE)
    with pytest.raises(Einval):
        read_file(node, "/f", 10, flags=OpenFlags.DIRECT, offset=7)


def test_buffered_write_is_visible_before_fsync_via_cache(node):
    """Dirty cache pages satisfy reads before writeback happens."""

    def script(env):
        fd = yield from node.vfs.open("/f", OpenFlags.RDWR | OpenFlags.CREAT)
        space = node.new_process_space()
        vaddr = space.mmap(PAGE_SIZE)
        space.write_bytes(vaddr, b"dirty-bytes")
        yield from node.vfs.write(fd, UserBuffer(space, vaddr, 11))
        node.vfs.seek(fd, 0)
        out = space.mmap(PAGE_SIZE)
        n = yield from node.vfs.read(fd, UserBuffer(space, out, 11))
        data = space.read_bytes(out, n)
        yield from node.vfs.close(fd)
        return data

    assert run(node, script(node.env)) == b"dirty-bytes"


def test_partial_page_overwrite_preserves_rest(node):
    payload = bytes(range(256)) * 16  # one page
    write_file(node, "/f", payload)
    node.pagecache.invalidate_inode(2)

    def script(env):
        fd = yield from node.vfs.open("/f", OpenFlags.RDWR)
        node.vfs.seek(fd, 100)
        space = node.new_process_space()
        vaddr = space.mmap(PAGE_SIZE)
        space.write_bytes(vaddr, b"XY")
        yield from node.vfs.write(fd, UserBuffer(space, vaddr, 2))
        yield from node.vfs.close(fd)

    run(node, script(node.env))
    expected = payload[:100] + b"XY" + payload[102:]
    assert read_file(node, "/f", len(payload)) == expected
