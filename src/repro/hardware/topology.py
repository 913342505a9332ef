"""Intra-node NUMA distances and device affinity.

The paper's §V-C describes why CPU binding and GPU affinity matter:
EPYC nodes expose several NUMA domains, only some of which have direct
affinity to a GPU; binding a GPU's host process to a remote domain
costs host-to-device bandwidth.  The affinity model in
:mod:`repro.simcluster.affinity` needs two facts from a node: each
device's home domain and the hop count between two domains -- 0 for
the same domain, 1 inside a socket and 2 across sockets.
"""

from __future__ import annotations

from repro.hardware.node import NodeSpec


def _numa_count(node: NodeSpec) -> int:
    return node.cpu.numa_domains * node.cpu_sockets


def device_home_numa(node: NodeSpec, device_index: int) -> int:
    """NUMA domain index that has direct affinity to a device."""
    n_numa = _numa_count(node)
    if device_index < 0 or device_index >= node.logical_devices_per_node:
        raise ValueError(
            f"device index {device_index} out of range for {node.name} "
            f"({node.logical_devices_per_node} devices)"
        )
    return device_index % n_numa


def numa_hops(node: NodeSpec, domain_a: int, domain_b: int) -> int:
    """Hop count between two NUMA domains of a node.

    0 for the same domain, 1 inside a socket and 2 across sockets;
    a domain outside ``[0, n_numa)`` raises :class:`ValueError`.
    """
    n_numa = _numa_count(node)
    for domain in (domain_a, domain_b):
        if domain < 0 or domain >= n_numa:
            raise ValueError(
                f"NUMA domain {domain} out of range for {node.name} "
                f"({n_numa} domains)"
            )
    if domain_a == domain_b:
        return 0
    per_socket = node.cpu.numa_domains
    return 1 if domain_a // per_socket == domain_b // per_socket else 2


def numa_distance_matrix(node: NodeSpec) -> list[list[int]]:
    """Hop-count distance matrix between all NUMA domains of a node."""
    domains = range(_numa_count(node))
    return [[numa_hops(node, a, b) for b in domains] for a in domains]
