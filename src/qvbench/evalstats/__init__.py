"""Effectiveness metrics and the statistical analysis layer.

Import from the submodules: `agreement`, `anova`, `metrics`, `special`
and `tukey`.
"""
