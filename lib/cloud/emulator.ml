module Prng = S3_util.Prng
module Engine = S3_sim.Engine

type config = {
  control_latency_min : float;
  control_latency_max : float;
  bwlimit_quantum : float;
  jitter_stddev : float;
  seed : int;
}

let default_config =
  { control_latency_min = 0.05;
    control_latency_max = 0.2;
    bwlimit_quantum = 0.008;  (* 1 KB/s in Mb/s *)
    jitter_stddev = 0.02;
    seed = 1234
  }

let validate c =
  if c.control_latency_min < 0. || c.control_latency_max < c.control_latency_min then
    invalid_arg "Emulator: control latency bounds";
  if c.bwlimit_quantum < 0. then invalid_arg "Emulator: negative quantum";
  if c.jitter_stddev < 0. || c.jitter_stddev >= 0.5 then
    invalid_arg "Emulator: jitter_stddev must be in [0, 0.5)"

let data_plane c =
  validate c;
  let g = Prng.create c.seed in
  let control_latency () =
    if c.control_latency_max <= 0. then 0.
    else if Float.equal c.control_latency_max c.control_latency_min then
      c.control_latency_min
    else Prng.uniform g c.control_latency_min c.control_latency_max
  in
  let shape_rate ~flow_id:_ rate =
    (* rsync --bwlimit truncates to whole KB/s, and real TCP throughput
       wobbles below the limiter; both only ever lose bandwidth. *)
    let quantized =
      if c.bwlimit_quantum <= 0. then rate
      else Float.of_int (int_of_float (rate /. c.bwlimit_quantum)) *. c.bwlimit_quantum
    in
    let noise =
      if c.jitter_stddev <= 0. then 1.
      else min 1. (Prng.gaussian g ~mean:1. ~stddev:c.jitter_stddev)
    in
    max 0. (quantized *. noise)
  in
  { Engine.control_latency; shape_rate }

let run ?sim_config ?faults ?detector ?retry ?watchdog topo alg tasks =
  Engine.run ?config:sim_config ~data_plane:(data_plane default_config) ?faults ?detector
    ?retry ?watchdog topo alg tasks
