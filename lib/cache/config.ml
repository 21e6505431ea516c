module Addr = Stramash_mem.Addr
module Latency = Stramash_mem.Latency
module Layout = Stramash_mem.Layout

type geometry = { size : int; ways : int }

let sets g =
  let s = g.size / (Addr.line_size * g.ways) in
  assert (s > 0 && s land (s - 1) = 0);
  s

type t = {
  l1i : geometry;
  l1d : geometry;
  l2 : geometry;
  l3 : geometry;
  shared_l3 : bool;
  hw_model : Layout.hw_model;
  x86_lat : Latency.t;
  arm_lat : Latency.t;
  cxl : Cxl.t;
}

let default hw_model =
  {
    l1i = { size = Addr.kib 8; ways = 4 };
    l1d = { size = Addr.kib 8; ways = 4 };
    l2 = { size = Addr.kib 64; ways = 8 };
    l3 = { size = Addr.kib 256; ways = 16 };
    shared_l3 = (hw_model = Layout.Fully_shared);
    hw_model;
    x86_lat = Latency.default_for_node Stramash_sim.Node_id.X86;
    arm_lat = Latency.default_for_node Stramash_sim.Node_id.Arm;
    cxl = Cxl.default;
  }

let with_l3_bytes t size = { t with l3 = { t.l3 with size } }

let latencies t = function
  | Stramash_sim.Node_id.X86 -> t.x86_lat
  | Stramash_sim.Node_id.Arm -> t.arm_lat
