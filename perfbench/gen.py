"""Seeded corpus generator for the HSIS benchmark.

Each workload is a list of designs (Verilog text + PIF text + the verdict
every property must produce) and, for serve-table1, the order in which the
two closed-loop clients submit them. The generated designs are written out
here in full; the program under test only ever sees their text.

    python3 perfbench/gen.py --workload reach-mdlc --seed 3   # print manifest

The expected verdicts of the generated designs follow from how they are
built (see the comments on each generator). The Table-1 designs are read
from models/ and their verdicts from the table in tests/test_models.cpp.
"""

import argparse
import json
import random
import re
import sys
from pathlib import Path

WORKLOADS = ("reach-mdlc", "serve-table1")

# Size of the replicated design: one verification takes about 2 s on a
# 4-core x86 host (RelWithDebInfo build), so the per-layer costs sit well
# above timer noise.
MDLC_LINKS = 3

# serve-table1: two clients, each submitting blocks; a block is every
# Table-1 design once plus SERVE_EXTRA a second time, in a seeded order, each
# as a run of SERVE_REPEAT identical requests. The odd number of runs per
# block keeps the median latency inside one design's requests rather than
# on the boundary between two. With one client the designed hit share would
# be (SERVE_REPEAT - 1) / SERVE_REPEAT; the second client's evictions lower
# it, and the benchmark reports the share it measured.
TABLE1 = ("philos", "pingpong", "gigamax", "scheduler", "dcnew", "2mdlc")
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_REPEAT = 4
SERVE_EXTRA = "pingpong"
SERVE_BLOCKS = 64  # more than a run can consume

# One link of the message data-link controller of models/mdlc2.v (its
# comments dropped), copied here so the generated design stays fixed if the
# bundled model changes. The sticky `err` flag can never rise: a frame is accepted only
# when its checksum matches, and a corrupted payload (~data) always changes
# the checksum. The receiver keeps delivering as long as clean acks keep
# coming, which is exactly the fairness constraint.
MDLC_LINK = """\
module link(delivered);
  output delivered;
  wire clk;

  enum { make, send, wait_ack } tx_st;
  reg [3:0] tx_data;
  reg tx_seq;
  reg [1:0] timer;

  wire [4:0] tx_frame, tx_crc;
  assign tx_frame = {tx_seq, tx_data};
  assign tx_crc = tx_frame ^ (tx_frame >> 2);

  reg ch_valid;
  reg [3:0] ch_data;
  reg ch_seq;
  reg [4:0] ch_crc;
  reg drop, corrupt;
  always @(posedge clk) begin
    drop <= $ND(0, 1);
    corrupt <= $ND(0, 1);
  end
  initial drop = 0;
  initial corrupt = 0;

  reg rx_seq;
  reg [3:0] rx_data;
  reg deliver;
  reg acked;
  reg err;

  wire [4:0] rx_frame, rx_crc;
  assign rx_frame = {ch_seq, ch_data};
  assign rx_crc = rx_frame ^ (rx_frame >> 2);

  wire rok, raccept;
  assign rok = ch_valid && (rx_crc == ch_crc);
  assign raccept = rok && (ch_seq == rx_seq);

  reg ack_valid;
  reg ack_seq;
  reg ackdrop;
  always @(posedge clk) ackdrop <= $ND(0, 1);
  initial ackdrop = 0;

  wire ack_here;
  assign ack_here = ack_valid && (ack_seq == tx_seq);

  assign delivered = deliver;

  always @(posedge clk) begin
    case (tx_st)
      make: begin
        tx_data <= $ND(2, 5, 9, 14);
        tx_st <= send;
        timer <= 0;
      end
      send: begin
        tx_st <= wait_ack;
        timer <= 0;
      end
      wait_ack: begin
        if (ack_here) begin
          tx_seq <= !tx_seq;
          tx_st <= make;
        end else if (timer == 3) begin
          tx_st <= send;
        end else begin
          timer <= timer + 1;
        end
      end
    endcase

    if (tx_st == send) begin
      ch_valid <= !drop;
      ch_data <= corrupt ? ~tx_data : tx_data;
      ch_seq <= tx_seq;
      ch_crc <= tx_crc;
    end else begin
      ch_valid <= 0;
    end

    if (raccept) begin
      rx_data <= ch_data;
      rx_seq <= !rx_seq;
      deliver <= 1;
      if (!(ch_data == tx_data)) err <= 1;
    end else begin
      deliver <= 0;
    end

    if (rok) begin
      ack_valid <= !ackdrop;
      ack_seq <= ch_seq;
      acked <= !ackdrop;
    end else begin
      ack_valid <= 0;
      acked <= 0;
    end
  end

  initial tx_st = make;
  initial tx_data = 0;
  initial tx_seq = 0;
  initial timer = 0;
  initial ch_valid = 0;
  initial ch_data = 0;
  initial ch_seq = 0;
  initial ch_crc = 0;
  initial rx_seq = 0;
  initial rx_data = 0;
  initial deliver = 0;
  initial acked = 0;
  initial err = 0;
  initial ack_valid = 0;
  initial ack_seq = 0;
endmodule
"""

def mdlc_design(links, watched):
    """N-link data-link controller: AG data integrity over every link (holds)
    and one Büchi LC property, "link `watched` keeps delivering" (holds under
    the per-link ack fairness). Links are declared starting at the watched
    one, so every seed gives the same design up to names and the same BDD
    work (the variable order follows declaration order)."""
    top = ["module mdlcN;", "  wire clk;"]
    order = [(watched + j) % links for j in range(links)]
    top += [f"  wire dlv{i};" for i in order]
    top += [f"  link l{i}(dlv{i});" for i in order]
    top.append("endmodule")
    verilog = "\n".join(top) + "\n\n" + MDLC_LINK
    deliver = f"l{watched}.deliver=1"
    pif = "fairness {\n"
    pif += "".join(f'  buchi "l{i}.acked=1";\n' for i in order)
    pif += "}\n"
    integrity = " & ".join(f"l{i}.err=0" for i in order)
    pif += f'ctl data_integrity "AG ({integrity})";\n'
    pif += (
        "automaton keeps_delivering {\n"
        "  state wait init;\n"
        "  state seen;\n"
        f'  edge wait -> seen on "{deliver}";\n'
        f'  edge wait -> wait on "!({deliver})";\n'
        f'  edge seen -> wait on "!({deliver})";\n'
        f'  edge seen -> seen on "{deliver}";\n'
        "  accept buchi seen;\n"
        "}\n"
    )
    return {
        "name": f"mdlc{links}",
        "top": "mdlcN",
        "verilog": verilog,
        "pif": pif,
        "expected": {"data_integrity": True, "keeps_delivering": True},
    }


def table1_designs(root):
    """The six bundled designs with the verdict table of the model tests."""
    table = (root / "tests" / "test_models.cpp").read_text()
    expected = {}
    for model, prop, holds in re.findall(
            r'\{"([\w]+)", "([\w]+)", (true|false)\}', table):
        expected.setdefault(model, {})[prop] = holds == "true"
    files = {"2mdlc": "mdlc2"}
    designs = []
    for name in TABLE1:
        stem = files.get(name, name)
        verilog = (root / "models" / f"{stem}.v").read_text()
        top = re.search(r"^module\s+(\w+)", verilog, re.M).group(1)
        if name not in expected:
            raise ValueError(f"no expected verdicts for {name}")
        designs.append({
            "name": name,
            "top": top,
            "verilog": verilog,
            "pif": (root / "models" / f"{stem}.pif").read_text(),
            "expected": expected[name],
        })
    return designs


def generate(workload, seed, root):
    """The manifest of one workload at one seed (a JSON-ready dict)."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = {"workload": workload, "seed": seed}
    if workload == "reach-mdlc":
        manifest["designs"] = [mdlc_design(MDLC_LINKS,
                                           rng.randrange(MDLC_LINKS))]
    elif workload == "serve-table1":
        designs = table1_designs(Path(root))
        manifest["designs"] = designs
        blocks = []
        for _ in range(SERVE_CLIENTS):
            client = []
            for _ in range(SERVE_BLOCKS):
                order = list(range(len(designs))) + [TABLE1.index(SERVE_EXTRA)]
                rng.shuffle(order)
                client.append(order)
            blocks.append(client)
        manifest["serve"] = {"workers": SERVE_WORKERS, "repeat": SERVE_REPEAT,
                             "blocks": blocks}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    json.dump(generate(args.workload, args.seed, root), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
