"""Platform model: hosts, external-load traces, links and networks.

This package models the *hardware* side of the paper's two experimental
contexts (DESIGN.md §2):

* a local homogeneous cluster — equal-speed hosts, fast uniform network;
* a heterogeneous multi-site grid — host speeds spanning the paper's
  PII-400 → Athlon-1.4G range, multi-user external load, slow and
  fluctuating inter-site links.

Time is virtual (driven by :mod:`repro.des`); hosts convert *work units*
(counted operations reported by the numerics) into virtual durations by
integrating their effective speed over their availability trace.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "AvailabilityTrace": "traces",
        "ConstantTrace": "traces",
        "MarkovTrace": "traces",
        "Host": "host",
        "Link": "link",
        "Network": "network",
        "Platform": "platform",
        "SiteSpec": "platform",
        "homogeneous_cluster": "platform",
        "multi_site_grid": "platform",
        "paper_heterogeneous_grid": "platform",
    },
)
