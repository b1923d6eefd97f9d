"""Visual analytics layer (§3.4): view payloads and headless renderers.

- :mod:`repro.viz.payloads` — the exact data each web-UI pane consumes
  (overview, query preview, similarity results with warped-point
  connectors, radial chart, connected scatter, seasonal view).
- :mod:`repro.viz.ascii_chart` — terminal renderers so the examples are
  visual without matplotlib.
- :mod:`repro.viz.svg` — a dependency-free SVG writer regenerating the
  paper's figure styles as files.
"""
