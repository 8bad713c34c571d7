module Prng = S3_util.Prng
module Engine = S3_sim.Engine

(* One seeded stream draws every pause and every noise factor, in
   event order, so a run is reproducible. *)
let data_plane () =
  let g = Prng.create 1234 in
  let control_latency () = Prng.uniform g 0.05 0.2 in
  let quantum = 0.008 (* 1 KB/s in Mb/s *) in
  let shape_rate ~flow_id:_ rate =
    (* rsync --bwlimit truncates to whole KB/s, and real TCP throughput
       wobbles below the limiter; both only ever lose bandwidth. *)
    let quantized = Float.of_int (int_of_float (rate /. quantum)) *. quantum in
    let wobble = Prng.gaussian g ~mean:1. ~stddev:0.02 in
    let noise = if 1. <= wobble then 1. else wobble in
    let shaped = quantized *. noise in
    if 0. >= shaped then 0. else shaped
  in
  { Engine.control_latency; shape_rate }

let run ?sim_config ?faults ?detector ?retry ?watchdog topo alg tasks =
  Engine.run ?config:sim_config ~data_plane:(data_plane ()) ?faults ?detector ?retry
    ?watchdog topo alg tasks
