(* Failure detection with suspicion latency.

   The fault plan says when servers *physically* die; this module says
   when the control plane *learns* about it. A heartbeat/probe model is
   compiled, once, into a deterministic detection schedule: a crash at T
   stops the server's heartbeats, the detector raises a suspicion after
   [suspect] seconds of silence and confirms the death after a further
   [confirm] seconds without positive evidence. A recovery is positive
   evidence and acts immediately — a blip shorter than the suspicion
   window emits nothing at all, a recovery inside the confirmation
   window retracts the suspicion ([Cleared]), and a recovery after
   confirmation is merely [Seen_alive] (the re-protection machinery has
   already been told). Seeded false positives model probe loss: a
   suspicion that was never backed by a crash and always clears before
   it could confirm.

   Everything is precomputed from the plan (rack outages expanded, dead
   re-crashes deduplicated) by replaying a private {!Fault} cursor, so
   the engine-facing cursor here is a flat sorted script: equal seeds
   and equal plans replay byte-identically. *)

module Topology = S3_net.Topology
module Prng = S3_util.Prng
module Spec = S3_util.Spec
module Table = S3_util.Table

type config = {
  suspect : float;
  confirm : float;
  fp : int;
  fp_seed : int;
  fp_horizon : float;
}

let default = { suspect = 1.; confirm = 1.; fp = 0; fp_seed = 211; fp_horizon = 0. }

let latency c = c.suspect +. c.confirm

let v ?(suspect = default.suspect) ?(confirm = default.confirm) ?(fp = default.fp)
    ?(fp_seed = default.fp_seed) ?(fp_horizon = default.fp_horizon) () =
  if (not (Float.is_finite suspect)) || suspect < 0. then
    invalid_arg "Detector.v: suspect must be finite and >= 0";
  if (not (Float.is_finite confirm)) || confirm < 0. then
    invalid_arg "Detector.v: confirm must be finite and >= 0";
  if fp < 0 then invalid_arg "Detector.v: fp must be >= 0";
  if fp > 0 && confirm <= 0. then
    invalid_arg "Detector.v: fp requires confirm > 0 (false positives clear before confirming)";
  if fp > 0 && ((not (Float.is_finite fp_horizon)) || fp_horizon <= 0.) then
    invalid_arg "Detector.v: fp requires a finite fp-horizon > 0";
  if (not (Float.is_finite fp_horizon)) || fp_horizon < 0. then
    invalid_arg "Detector.v: fp-horizon must be finite and >= 0";
  { suspect; confirm; fp; fp_seed; fp_horizon }

let to_string c =
  let base =
    Printf.sprintf "suspect=%s,confirm=%s" (Table.fmt_exact c.suspect) (Table.fmt_exact c.confirm)
  in
  if c.fp = 0 then base
  else
    Printf.sprintf "%s,fp=%d,fp-seed=%d,fp-horizon=%s" base c.fp c.fp_seed
      (Table.fmt_exact c.fp_horizon)

let of_string s =
  Spec.parse ~what:"detect" ~default
    ~finish:(fun c ->
      v ~suspect:c.suspect ~confirm:c.confirm ~fp:c.fp ~fp_seed:c.fp_seed
        ~fp_horizon:c.fp_horizon ())
    [ (* Shorthand: all of the latency as silence, no confirmation
         window — detection fires [latency] seconds after the crash. *)
      Spec.float "latency" (fun c suspect -> { c with suspect; confirm = 0. });
      Spec.float "suspect" (fun c suspect -> { c with suspect });
      Spec.float "confirm" (fun c confirm -> { c with confirm });
      Spec.int "fp" (fun c fp -> { c with fp });
      Spec.int "fp-seed" ~aliases:[ "fp_seed" ] (fun c fp_seed -> { c with fp_seed });
      Spec.float "fp-horizon" ~aliases:[ "fp_horizon" ] (fun c fp_horizon -> { c with fp_horizon })
    ]
    s

(* ---- detection schedule ---- *)

type event =
  | Suspected of int
  | Cleared of int
  | Confirmed of int
  | Seen_alive of int

(* The physical crash/recover timeline, with the plan's own semantics
   (rack outages expanded to per-server crashes, re-crashing a dead
   server deduplicated): replay a private cursor over every change
   point. Termination: each [advance] consumes at least one script
   event or expires at least one degradation. *)
let physical_timeline topo plan =
  let st = Fault.start topo plan in
  let acc = ref [] in
  let rec go () =
    let t = Fault.next_change st in
    if Float.is_finite t then begin
      List.iter
        (fun ch ->
          match ch with
          | Fault.Crashed s -> acc := (t, true, s) :: !acc
          | Fault.Recovered s -> acc := (t, false, s) :: !acc
          | Fault.Degraded _ | Fault.Restored _ -> ())
        (Fault.advance st t);
      go ()
    end
  in
  go ();
  List.rev !acc

type episode = { e_server : int; e_crash : float; mutable e_recover : float option }

(* One episode per [Crashed] change, in physical fire order — the order
   matters: equal-time confirmations must fire in the same server order
   the physical batch crashed in, so a zero-latency detector replays
   the omniscient engine's crash batches byte-identically. *)
let episodes_of_timeline nserv timeline =
  let current : episode option array = Array.make nserv None in
  let order = ref [] in
  List.iter
    (fun (t, is_crash, s) ->
      if is_crash then begin
        let ep = { e_server = s; e_crash = t; e_recover = None } in
        current.(s) <- Some ep;
        order := ep :: !order
      end
      else begin
        (match current.(s) with Some ep -> ep.e_recover <- Some t | None -> ());
        current.(s) <- None
      end)
    timeline;
  List.rev !order

(* Detection events of one crash episode. Positive evidence (the
   recovery heartbeat) wins ties against both timers: a recovery at
   exactly [crash + suspect] is still a silent blip, one at exactly the
   confirmation instant still clears. *)
let episode_events c ep =
  let s = ep.e_server in
  let t_suspect = ep.e_crash +. c.suspect in
  let t_confirm = t_suspect +. c.confirm in
  match ep.e_recover with
  | Some r when r <= t_suspect -> []
  | Some r when r <= t_confirm -> [ (t_suspect, Suspected s); (r, Cleared s) ]
  | Some r -> [ (t_suspect, Suspected s); (t_confirm, Confirmed s); (r, Seen_alive s) ]
  | None -> [ (t_suspect, Suspected s); (t_confirm, Confirmed s) ]

(* Seeded false positives: draws that land on a server anywhere near a
   real crash episode are dropped rather than re-rolled, so adding a
   crash to a plan never shifts the surviving draws. *)
let false_positive_events c nserv episodes =
  if c.fp = 0 || nserv = 0 then []
  else begin
    let g = Prng.create c.fp_seed in
    let blocked s t0 t1 =
      List.exists
        (fun ep ->
          ep.e_server = s
          &&
          let hi =
            match ep.e_recover with
            | None -> infinity
            | Some r -> Float.max r (ep.e_crash +. latency c)
          in
          t0 <= hi && t1 >= ep.e_crash)
        episodes
    in
    let evs = ref [] in
    for _ = 1 to c.fp do
      let s = Prng.int g nserv in
      let t = Prng.float g c.fp_horizon in
      let d = c.confirm *. Prng.uniform g 0.05 0.95 in
      if not (blocked s t (t +. d)) then
        evs := (t +. d, Cleared s) :: (t, Suspected s) :: !evs
    done;
    List.rev !evs
  end

let schedule topo c plan =
  let nserv = Topology.servers topo in
  let episodes = episodes_of_timeline nserv (physical_timeline topo plan) in
  let real = List.concat_map (episode_events c) episodes in
  let raw = real @ false_positive_events c nserv episodes in
  (* Stable by time: equal-time events keep generation order — real
     detections (in physical fire order) before false positives. *)
  List.stable_sort (fun (ta, _) (tb, _) -> Float.compare ta tb) raw

(* ---- engine-facing cursor ---- *)

type state = {
  script : (float * event) array;
  mutable cursor : int;
  susp : bool array;  (* suspected or believed dead *)
  bdead : bool array;  (* confirmed dead, not seen alive since *)
  known : bool array;  (* ever confirmed; never cleared *)
  mutable clock : float;
}

let time_epsilon = 1e-9

let start topo c plan =
  let nserv = Topology.servers topo in
  { script = Array.of_list (schedule topo c plan);
    cursor = 0;
    susp = Array.make nserv false;
    bdead = Array.make nserv false;
    known = Array.make nserv false;
    clock = 0.
  }

let next_change st =
  if st.cursor < Array.length st.script then fst st.script.(st.cursor) else infinity

let suspected st s = st.susp.(s)
let believed_dead st s = st.bdead.(s)
let known_crashed st s = st.known.(s)

let advance st t =
  let t = max t st.clock in
  st.clock <- t;
  let fired = ref [] in
  while
    st.cursor < Array.length st.script && fst st.script.(st.cursor) <= t +. time_epsilon
  do
    let _, ev = st.script.(st.cursor) in
    st.cursor <- st.cursor + 1;
    (match ev with
     | Suspected s -> st.susp.(s) <- true
     | Cleared s -> st.susp.(s) <- false
     | Confirmed s ->
       st.susp.(s) <- true;
       st.bdead.(s) <- true;
       st.known.(s) <- true
     | Seen_alive s ->
       st.susp.(s) <- false;
       st.bdead.(s) <- false);
    fired := ev :: !fired
  done;
  List.rev !fired
