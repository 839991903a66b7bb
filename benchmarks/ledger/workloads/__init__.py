"""The six workloads, in the order every table prints them."""

from . import (candidate_heavy, cli_paper, fabric_spawn, program_heavy,
               service_q1, trace_heavy)

WORKLOADS = {module.NAME: module for module in (
    cli_paper, trace_heavy, candidate_heavy, program_heavy, fabric_spawn,
    service_q1)}
