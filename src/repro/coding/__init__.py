"""Repetition coding, majority-multiplexing recovery, concatenation.

One compiler builds every fault-tolerant circuit: a logical bit is a
:class:`~repro.coding.concatenation.Block` tree,
:func:`~repro.coding.concatenation.compile_gate` and
:func:`~repro.coding.concatenation.compile_recovery` lower a gate and a
Figure-2 recovery at any level (level 1 is the base case), and
:class:`~repro.coding.logical.LogicalProcessor` drives them over
``n_logical`` bits at a chosen concatenation level.
"""
