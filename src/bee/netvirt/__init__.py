"""Overlay network plane: topology/cost models and the socket relay agents.

The package imports none of its submodules, so a relay agent process loads
`bee.netvirt.agent` without the topology code.
"""
