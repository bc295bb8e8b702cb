#!/usr/bin/env python3
"""Why registration caches need VMA SPY: a corruption scenario, averted.

The paper's section 2.2.2 warning, made concrete: "the cache must be
kept up-to-date with mapping changes.  As the application is not aware
of the caching of its address translations in the NIC, it might change
its address space (especially through free or munmap), thus making the
registered translation invalid."

This example:

1. registers a user buffer through GMKRC and sends from it;
2. has the process munmap the buffer and mmap a *new* one that lands at
   the same virtual address (the classic malloc-reuse pattern);
3. shows that VMA SPY invalidated the cached translation at munmap
   time, so the next acquire re-registers and the send carries the new
   buffer's bytes — not stale data from the old physical pages;
4. re-runs the same sequence with the spy's notifications counted, and
   prints the cache statistics, read from a metrics registry observing
   the run.

Run:  python examples/registration_cache_pitfalls.py
"""

from repro import obs
from repro.cluster import node_pair
from repro.gm.kernel import GmKernelPort
from repro.gmkrc import Gmkrc
from repro.mem.layout import sg_from_frames
from repro.sim import Environment
from repro.units import PAGE_SIZE


def main() -> None:
    with obs.scoped_registry() as registry:
        env = Environment()
        node_a, node_b = node_pair(env)
        port_a = GmKernelPort(node_a, 2)
        port_b = GmKernelPort(node_b, 2)
        cache = Gmkrc(port_a, node_a.vmaspy, max_cached_pages=64)
        labels = dict(node=node_a.node_id, port=2)
        invalidations = registry.counter("gmkrc.invalidations", **labels)
        space = node_a.new_process_space()
        dst = node_b.kspace.kmalloc(PAGE_SIZE)
        received = []

        def receiver(env):
            for _ in range(2):
                yield from port_b.provide_receive_buffer_physical(
                    sg_from_frames(dst.frames, 0, PAGE_SIZE)
                )
                event = yield from port_b.receive_event(blocking=True)
                received.append(node_b.kspace.read_bytes(dst.vaddr, event.size))

        def sender(env):
            # --- generation 1 -------------------------------------------------
            vaddr = space.mmap(PAGE_SIZE)
            space.write_bytes(vaddr, b"GENERATION-1")
            key, entry = yield from cache.acquire(space, vaddr, PAGE_SIZE)
            old_frame = entry.region.frames[0]
            yield from port_a.send(1, 2, key, 12)
            cache.release(entry)
            yield env.timeout(50_000)

            # --- the dangerous pattern ---------------------------------------
            space.munmap(vaddr, PAGE_SIZE)  # VMA SPY fires here
            print(f"after munmap: cached entries = {cache.entry_count()} "
                  f"(invalidations = {invalidations.value})")
            vaddr2 = space.mmap(PAGE_SIZE)
            assert vaddr2 == vaddr, "allocator reused the virtual address"
            space.write_bytes(vaddr2, b"GENERATION-2")
            key2, entry2 = yield from cache.acquire(space, vaddr2, PAGE_SIZE)
            new_frame = entry2.region.frames[0]
            print(f"same virtual address {vaddr2:#x}: physical frame "
                  f"{old_frame.pfn} -> {new_frame.pfn}")
            yield from port_a.send(1, 2, key2, 12)
            cache.release(entry2)

        env.process(receiver(env))
        env.run(until=env.process(sender(env)))
        env.run()

        print(f"receiver got: {received[0]!r} then {received[1]!r}")
        assert received[0] == b"GENERATION-1"
        assert received[1] == b"GENERATION-2", (
            "STALE TRANSLATION — without VMA SPY this would be generation-1 "
            "bytes from the freed physical page"
        )
        hits = registry.counter("gmkrc.hits", **labels).value
        misses = registry.counter("gmkrc.misses", **labels).value
        delivered = registry.counter("vmaspy.notifications",
                                     spy=node_a.vmaspy.name).value
        print(f"cache: {hits} hits, {misses} misses, "
              f"{invalidations.value} spy invalidations")
        print(f"VMA SPY delivered {delivered} notifications")
        print("=> the second send carried the new buffer: coherence held.")


if __name__ == "__main__":
    main()
