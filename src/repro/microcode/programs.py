"""Shipped Microcode programs.

:data:`FILTER_PROGRAM_SOURCE` is the §3.2 filtering application: forward
all IP packets with no optional headers, drop all non-IP packets and IP
packets with options, counting each dropped class in its own Packet/Byte
Counter (Figure 6 layout: non-IP counter at DROP_CNT_BASE, IP-options
counter at DROP_CNT_BASE + 2, addresses in 8-byte words).

The ``reg``/``ptr`` declarations are this reproduction's dialect for what
the paper's surrounding codebase provides implicitly (the intermediate
register ``ir0`` and the pre-parsed ``ether_ptr``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

from repro.microcode.compiler import CompiledProgram, TrioCompiler
from repro.microcode.interp import MicrocodeExecutor

__all__ = [
    "BUILTIN_PROGRAMS",
    "BuiltinProgram",
    "FILTER_PROGRAM_SOURCE",
    "NF_FIREWALL_PARSE_SOURCE",
    "NF_TELEMETRY_PARSE_SOURCE",
    "TRIO_ML_PARSE_SOURCE",
    "build_filter_executor",
    "compile_filter_program",
]

FILTER_PROGRAM_SOURCE = """
// Packet header formats (format similar to P4, Section 3.2).
struct ether_t {
    dmac  : 48;
    smac  : 48;
    etype : 16;
};

struct ipv4_t {
    ver      : 4;
    ihl      : 4;
    dscp     : 8;
    length   : 16;
    ident    : 16;
    flags    : 3;
    frag     : 13;
    ttl      : 8;
    proto    : 8;
    checksum : 16;
    src      : 32;
    dst      : 32;
};

// Counter bank base (address in 8-byte words; each Packet/Byte Counter
// is 16 bytes = 2 words, Figure 6).
const DROP_CNT_BASE = 0;

// Intermediate register distinguishing the dropped-packet class.
reg ir0;

// The Ethernet header sits at the start of the packet head in LMEM.
ptr ether_ptr = ether_t @ 0;

process_ether:
begin
    ir0 = 0;
    if (ether_ptr->etype == 0x0800) {
        goto process_ip;
    }
    goto count_dropped;
end

process_ip:
begin
    const ipv4_t *ipv4_addr = ether_ptr + sizeof(ether_t);
    ir0 = 1;
    if (ipv4_addr->ver == 4 && ipv4_addr->ihl == 5) {
        goto forward_packet;
    }
    goto count_dropped;
end

count_dropped:
begin
    const : addr = DROP_CNT_BASE + ir0 * 2;
    CounterIncPhys(addr, r_work.pkt_len);
    goto drop_packet;
end
"""


TRIO_ML_PARSE_SOURCE = """
// Microcode port of Trio-ML's packet classification and header parse
// (the front of the Figure 10 workflow): decide whether an incoming
// packet is an aggregation packet for a configured job, and extract the
// fields the aggregation code needs into intermediate registers.

struct ether_t {
    dmac  : 48;
    smac  : 48;
    etype : 16;
};

struct ipv4_t {
    ver      : 4;
    ihl      : 4;
    dscp     : 8;
    length   : 16;
    ident    : 16;
    flags    : 3;
    frag     : 13;
    ttl      : 8;
    proto    : 8;
    checksum : 16;
    src      : 32;
    dst      : 32;
};

struct udp_t {
    sport  : 16;
    dport  : 16;
    length : 16;
    csum   : 16;
};

// Figure 8, verbatim.
struct trio_ml_hdr_t {
    job_id   : 8;
    block_id : 32;
    age_op   : 4;
    final    : 1;
    degraded : 1;
             : 2;
    src_id   : 8;
    src_cnt  : 8;
    gen_id   : 16;
             : 4;
    grad_cnt : 12;
};

const TRIO_ML_PORT = 12000;
const PROTO_UDP = 17;
const ETYPE_IP = 0x0800;

// Extracted fields, handed to the aggregation code.
reg r_job_id;
reg r_block_id;
reg r_src_id;
reg r_grad_cnt;
reg r_gen_id;

ptr ether_ptr = ether_t @ 0;
ptr ipv4_ptr = ipv4_t @ 14;
ptr udp_ptr = udp_t @ 34;
ptr ml_ptr = trio_ml_hdr_t @ 42;

classify_ether:
begin
    if (ether_ptr->etype == ETYPE_IP) {
        goto classify_ip;
    }
    goto forward_packet;
end

classify_ip:
begin
    if (ipv4_ptr->ver == 4 && ipv4_ptr->proto == PROTO_UDP) {
        goto classify_udp;
    }
    goto forward_packet;
end

classify_udp:
begin
    if (udp_ptr->dport == TRIO_ML_PORT) {
        goto parse_ml_ids;
    }
    goto forward_packet;
end

parse_ml_ids:
begin
    r_job_id = ml_ptr->job_id;
    r_block_id = ml_ptr->block_id;
    goto parse_ml_meta;
end

parse_ml_meta:
begin
    r_src_id = ml_ptr->src_id;
    r_gen_id = ml_ptr->gen_id;
    goto parse_ml_cnt;
end

parse_ml_cnt:
begin
    r_grad_cnt = ml_ptr->grad_cnt;
    goto aggregate;
end
"""


NF_FIREWALL_PARSE_SOURCE = """
// Parse front-end of the firewall NF (repro.nf.firewall): classify the
// frame and extract the per-source key the policing body hashes on.
// The policing/blocklist body itself is the `police_source` extern.

struct ether_t {
    dmac  : 48;
    smac  : 48;
    etype : 16;
};

struct ipv4_t {
    ver      : 4;
    ihl      : 4;
    dscp     : 8;
    length   : 16;
    ident    : 16;
    flags    : 3;
    frag     : 13;
    ttl      : 8;
    proto    : 8;
    checksum : 16;
    src      : 32;
    dst      : 32;
};

const ETYPE_IP = 0x0800;
const PROTO_UDP = 17;

// The per-source state key (repro.net.headers.source_key).
reg r_src_ip;

ptr ether_ptr = ether_t @ 0;
ptr ipv4_ptr = ipv4_t @ 14;

classify_ether:
begin
    if (ether_ptr->etype == ETYPE_IP) {
        goto classify_ip;
    }
    goto forward_packet;
end

classify_ip:
begin
    if (ipv4_ptr->ver == 4 && ipv4_ptr->proto == PROTO_UDP) {
        goto extract_source;
    }
    goto forward_packet;
end

extract_source:
begin
    r_src_ip = ipv4_ptr->src;
    goto police_source;
end
"""


NF_TELEMETRY_PARSE_SOURCE = """
// Parse front-end of the telemetry NF (repro.nf.telemetry): classify
// the frame and extract the canonical flow key (src, dst, sport, dport
// — repro.net.headers.flow_key).  The per-flow accounting body is the
// `account_flow` extern.

struct ether_t {
    dmac  : 48;
    smac  : 48;
    etype : 16;
};

struct ipv4_t {
    ver      : 4;
    ihl      : 4;
    dscp     : 8;
    length   : 16;
    ident    : 16;
    flags    : 3;
    frag     : 13;
    ttl      : 8;
    proto    : 8;
    checksum : 16;
    src      : 32;
    dst      : 32;
};

struct udp_t {
    sport  : 16;
    dport  : 16;
    length : 16;
    csum   : 16;
};

const ETYPE_IP = 0x0800;
const PROTO_UDP = 17;

// The four flow-key fields, handed to the accounting code.
reg r_src_ip;
reg r_dst_ip;
reg r_sport;
reg r_dport;

ptr ether_ptr = ether_t @ 0;
ptr ipv4_ptr = ipv4_t @ 14;
ptr udp_ptr = udp_t @ 34;

classify_ether:
begin
    if (ether_ptr->etype == ETYPE_IP) {
        goto classify_ip;
    }
    goto forward_packet;
end

classify_ip:
begin
    if (ipv4_ptr->ver == 4 && ipv4_ptr->proto == PROTO_UDP) {
        goto extract_addrs;
    }
    goto forward_packet;
end

extract_addrs:
begin
    r_src_ip = ipv4_ptr->src;
    r_dst_ip = ipv4_ptr->dst;
    goto extract_ports;
end

extract_ports:
begin
    r_sport = udp_ptr->sport;
    r_dport = udp_ptr->dport;
    goto account_flow;
end
"""


@dataclass(frozen=True)
class BuiltinProgram:
    """Source + binding of one shipped program, for tooling to enumerate."""

    name: str
    source: str
    entry: str
    extern_labels: Tuple[str, ...]

    def compile(self, analyze: str = "off") -> CompiledProgram:
        compiler = TrioCompiler(extern_labels=self.extern_labels,
                                analyze=analyze)
        return compiler.compile(self.source, entry=self.entry)


#: Every shipped program, keyed by name.  The static-analysis CI gate
#: (``python -m repro.microcode.analysis --builtins``) and the clean-
#: program tests iterate this registry, so new programs added here are
#: automatically held to the same bar.
BUILTIN_PROGRAMS: Dict[str, BuiltinProgram] = {
    "filter": BuiltinProgram(
        name="filter",
        source=FILTER_PROGRAM_SOURCE,
        entry="process_ether",
        extern_labels=("forward_packet", "drop_packet"),
    ),
    # ``aggregate`` is the ~60-instruction aggregation body of Figure 10.
    "trio_ml_parse": BuiltinProgram(
        name="trio_ml_parse",
        source=TRIO_ML_PARSE_SOURCE,
        entry="classify_ether",
        extern_labels=("forward_packet", "aggregate"),
    ),
    "nf_firewall_parse": BuiltinProgram(
        name="nf_firewall_parse",
        source=NF_FIREWALL_PARSE_SOURCE,
        entry="classify_ether",
        extern_labels=("forward_packet", "police_source"),
    ),
    "nf_telemetry_parse": BuiltinProgram(
        name="nf_telemetry_parse",
        source=NF_TELEMETRY_PARSE_SOURCE,
        entry="classify_ether",
        extern_labels=("forward_packet", "account_flow"),
    ),
}


def compile_filter_program() -> CompiledProgram:
    """Compile the §3.2 filtering application.

    ``forward_packet`` and ``drop_packet`` are extern labels provided by
    the existing codebase ("code to forward the packet based on the
    destination address" / "code to drop the packet").
    """
    return BUILTIN_PROGRAMS["filter"].compile()


def build_filter_executor(counter_base_addr: int = 0) -> MicrocodeExecutor:
    """An executor for the filter program with standard terminal handlers.

    The handlers model the multi-instruction forward/drop code paths the
    paper elides: a few instructions of route lookup or cleanup, then the
    packet fate is set on the packet context.
    """
    program = compile_filter_program()

    def forward_packet(tctx: Any, pctx: Any) -> Iterator[Any]:
        yield from tctx.execute(4)  # route lookup + rewrite, ballpark
        pctx.forward()

    def drop_packet(tctx: Any, pctx: Any) -> Iterator[Any]:
        yield from tctx.execute(1)
        pctx.drop()

    executor = MicrocodeExecutor(
        program,
        terminals={
            "forward_packet": forward_packet,
            "drop_packet": drop_packet,
        },
    )
    executor.counter_base_addr = counter_base_addr
    return executor
