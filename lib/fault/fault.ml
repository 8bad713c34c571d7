module Topology = S3_net.Topology
module Prng = S3_util.Prng
module Table = S3_util.Table

type kind =
  | Server_crash of int
  | Server_recover of int
  | Rack_outage of int
  | Link_degrade of { entity : int; factor : float; duration : float }

type event = { time : float; kind : kind }

type t = { script : event array }

let empty = { script = [||] }

let validate_event ev =
  if not (Float.is_finite ev.time) || ev.time < 0. then
    invalid_arg "Fault.plan: event time must be finite and >= 0";
  match ev.kind with
  | Server_crash _ | Server_recover _ | Rack_outage _ -> ()
  | Link_degrade { factor; duration; _ } ->
    if not (Float.is_finite factor) || factor < 0. || factor > 1. then
      invalid_arg "Fault.plan: degradation factor must lie in [0, 1]";
    if not (Float.is_finite duration) || duration <= 0. then
      invalid_arg "Fault.plan: degradation duration must be positive and finite"

let plan events =
  List.iter validate_event events;
  let script = Array.of_list events in
  (* Stable: simultaneous events keep their script order. *)
  let keyed = Array.mapi (fun i ev -> (ev.time, i, ev)) script in
  Array.sort
    (fun (ta, ia, _) (tb, ib, _) ->
      match Float.compare ta tb with 0 -> Int.compare ia ib | c -> c)
    keyed;
  { script = Array.map (fun (_, _, ev) -> ev) keyed }

let events t = Array.to_list t.script
let is_empty t = Array.length t.script = 0

let random g topo ~horizon ?(crashes = 1) ?(rack_outages = 0) ?(degradations = 1)
    ?(recoveries = true) () =
  if horizon <= 0. || not (Float.is_finite horizon) then
    invalid_arg "Fault.random: horizon must be positive and finite";
  let nserv = Topology.servers topo in
  let nent = Array.length (Topology.entities topo) in
  let nracks = Topology.racks topo in
  (* Keep at least two servers un-crashed so workloads are not trivially
     all-lost; rack outages are exempt (a storm is allowed to be total). *)
  let crashes = max 0 (min crashes (nserv - 2)) in
  let victims = if crashes = 0 then [] else Prng.sample g crashes (List.init nserv Fun.id) in
  let crash_events =
    List.concat_map
      (fun s ->
        let tc = Prng.float g horizon in
        let crash = { time = tc; kind = Server_crash s } in
        if recoveries && Prng.bool g then
          [ crash; { time = tc +. Prng.float g (horizon -. tc) +. 1e-3; kind = Server_recover s } ]
        else [ crash ])
      victims
  in
  let rack_events =
    List.init (max 0 rack_outages) (fun _ ->
        { time = Prng.float g horizon; kind = Rack_outage (Prng.int g nracks) })
  in
  let degrade_events =
    List.init (max 0 degradations) (fun _ ->
        { time = Prng.float g horizon;
          kind =
            Link_degrade
              { entity = Prng.int g nent;
                factor = Prng.uniform g 0.1 0.9;
                duration = 1e-3 +. Prng.float g (horizon /. 2.)
              }
        })
  in
  plan (crash_events @ rack_events @ degrade_events)

(* ---- compact string spec ---- *)

let to_string t =
  events t
  |> List.map (fun ev ->
         match ev.kind with
         | Server_crash s -> Printf.sprintf "crash@%s:%d" (Table.fmt_exact ev.time) s
         | Server_recover s -> Printf.sprintf "recover@%s:%d" (Table.fmt_exact ev.time) s
         | Rack_outage r -> Printf.sprintf "rack@%s:%d" (Table.fmt_exact ev.time) r
         | Link_degrade { entity; factor; duration } ->
           Printf.sprintf "degrade@%s:%d:%s:%s" (Table.fmt_exact ev.time) entity
             (Table.fmt_exact factor) (Table.fmt_exact duration))
  |> String.concat ","

let of_string s =
  let parse_item item =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match String.index_opt item '@' with
    | None -> fail "fault %S: expected KIND@TIME:ARGS" item
    | Some at -> (
      let kind = String.sub item 0 at in
      let rest = String.sub item (at + 1) (String.length item - at - 1) in
      let fields = String.split_on_char ':' rest in
      let int_of x = int_of_string_opt (String.trim x) in
      let float_of x = float_of_string_opt (String.trim x) in
      match (String.lowercase_ascii kind, fields) with
      | "crash", [ time; srv ] -> (
        match (float_of time, int_of srv) with
        | Some time, Some s -> Ok { time; kind = Server_crash s }
        | _ -> fail "fault %S: expected crash@TIME:SERVER" item)
      | "recover", [ time; srv ] -> (
        match (float_of time, int_of srv) with
        | Some time, Some s -> Ok { time; kind = Server_recover s }
        | _ -> fail "fault %S: expected recover@TIME:SERVER" item)
      | "rack", [ time; rack ] -> (
        match (float_of time, int_of rack) with
        | Some time, Some r -> Ok { time; kind = Rack_outage r }
        | _ -> fail "fault %S: expected rack@TIME:RACK" item)
      | "degrade", [ time; ent; factor; dur ] -> (
        match (float_of time, int_of ent, float_of factor, float_of dur) with
        | Some time, Some entity, Some factor, Some duration ->
          Ok { time; kind = Link_degrade { entity; factor; duration } }
        | _ -> fail "fault %S: expected degrade@TIME:ENTITY:FACTOR:DURATION" item)
      | kind, _ -> fail "fault %S: unknown kind %S or wrong arity" item kind)
  in
  let items = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "") in
  let rec go acc = function
    | [] -> (
      match plan (List.rev acc) with
      | p -> Ok p
      | exception Invalid_argument m -> Error m)
    | item :: rest -> ( match parse_item item with Ok ev -> go (ev :: acc) rest | Error _ as e -> e)
  in
  go [] items

(* ---- cursor ---- *)

type change =
  | Crashed of int
  | Recovered of int
  | Degraded of int
  | Restored of int

type degradation = { d_entity : int; d_factor : float; d_until : float }

type state = {
  topo : Topology.t;
  script : event array;
  mutable cursor : int;
  dead_now : bool array;  (* per server *)
  ever : bool array;  (* per server; never cleared *)
  nic_owner : int array;  (* entity -> owning server, -1 for switches *)
  mutable active : degradation list;  (* unexpired degradations, newest first *)
  by_entity : degradation list array;
  (* Per-entity slice of [active], same newest-first order, so the
     multiplier fold over one entity's degradations runs the exact
     multiplication sequence the global scan would — one array read and
     O(degradations on this entity) instead of O(all active
     degradations). Empty when the plan scripts no degradation, so that
     such runs allocate nothing for it. *)
  mutable clock : float;
}

let time_epsilon = 1e-9

let start topo (t : t) =
  let nserv = Topology.servers topo in
  let nent = Array.length (Topology.entities topo) in
  let nracks = Topology.racks topo in
  Array.iter
    (fun ev ->
      match ev.kind with
      | Server_crash s | Server_recover s ->
        if s < 0 || s >= nserv then invalid_arg "Fault.start: server outside the topology"
      | Rack_outage r ->
        if r < 0 || r >= nracks then invalid_arg "Fault.start: rack outside the topology"
      | Link_degrade { entity; _ } ->
        if entity < 0 || entity >= nent then invalid_arg "Fault.start: entity outside the topology")
    t.script;
  let nic_owner = Array.make nent (-1) in
  for s = 0 to nserv - 1 do
    nic_owner.(Topology.server_entity topo s) <- s
  done;
  { topo;
    script = t.script;
    cursor = 0;
    dead_now = Array.make nserv false;
    ever = Array.make nserv false;
    nic_owner;
    active = [];
    by_entity =
      (if Array.exists (fun ev -> match ev.kind with Link_degrade _ -> true | _ -> false) t.script
       then Array.make nent []
       else [||]);
    clock = 0.
  }

let degradations st e = if e < Array.length st.by_entity then st.by_entity.(e) else []

let next_change st =
  let t_event =
    if st.cursor < Array.length st.script then st.script.(st.cursor).time else infinity
  in
  (* [min] at float spelled out as Stdlib defines it: a float comparison,
     not a [caml_compare] call, and not [Float.min], which orders NaN and
     -0. differently. *)
  List.fold_left (fun acc d -> if acc <= d.d_until then acc else d.d_until) t_event st.active

let dead st s = st.dead_now.(s)
let ever_crashed st s = st.ever.(s)

let multiplier st e =
  let owner = st.nic_owner.(e) in
  if owner >= 0 && st.dead_now.(owner) then 0.
  else
    List.fold_left (fun acc d -> acc *. d.d_factor) 1. (degradations st e)

let degraded st e = match degradations st e with [] -> false | _ :: _ -> true

let deliverable st e ~from ~until =
  let from = if from >= st.clock then from else st.clock (* Stdlib's [max] *) in
  if until <= from then 0.
  else begin
    let owner = st.nic_owner.(e) in
    if owner >= 0 && st.dead_now.(owner) then 0.
    else
      match degradations st e with
      | [] ->
        (* The general case below with no cut and a multiplier of 1:
           [0. +. ((until -. from) *. 1.)], which is [until -. from]. *)
        until -. from
      | ds ->
        (* Piecewise-constant multiplier: breakpoints are the expiries of
           the entity's active degradations inside (from, until). *)
        let cuts =
          List.filter_map
            (fun d -> if d.d_until > from && d.d_until < until then Some d.d_until else None)
            ds
          |> List.sort_uniq Float.compare
        in
        let rec go a cuts acc =
          let b = match cuts with [] -> until | c :: _ -> c in
          let m =
            List.fold_left
              (fun m d -> if d.d_until > a +. time_epsilon then m *. d.d_factor else m)
              1. ds
          in
          let acc = acc +. ((b -. a) *. m) in
          match cuts with [] -> acc | _ :: rest -> go b rest acc
        in
        go from cuts 0.
  end

let crash_server st s acc = if st.dead_now.(s) then acc
  else begin
    st.dead_now.(s) <- true;
    st.ever.(s) <- true;
    Crashed s :: acc
  end

let advance st t =
  let t = if t >= st.clock then t else st.clock in
  st.clock <- t;
  let changes = ref [] in
  (* Expire due degradations first: a degradation ending exactly when a
     new event fires restores capacity before the event is seen. *)
  let expired, live = List.partition (fun d -> d.d_until <= t +. time_epsilon) st.active in
  st.active <- live;
  List.iter
    (fun d ->
      (* List.filter keeps order, so the bucket stays the newest-first
         slice of [active] for this entity. *)
      st.by_entity.(d.d_entity) <-
        List.filter (fun x -> x.d_until > t +. time_epsilon) st.by_entity.(d.d_entity);
      changes := Restored d.d_entity :: !changes)
    expired;
  while
    st.cursor < Array.length st.script && st.script.(st.cursor).time <= t +. time_epsilon
  do
    let ev = st.script.(st.cursor) in
    st.cursor <- st.cursor + 1;
    (match ev.kind with
     | Server_crash s -> changes := crash_server st s !changes
     | Server_recover s ->
       if st.dead_now.(s) then begin
         st.dead_now.(s) <- false;
         changes := Recovered s :: !changes
       end
     | Rack_outage r ->
       List.iter
         (fun s -> changes := crash_server st s !changes)
         (Topology.servers_in_rack st.topo r)
     | Link_degrade { entity; factor; duration } ->
       let d = { d_entity = entity; d_factor = factor; d_until = ev.time +. duration } in
       st.active <- d :: st.active;
       st.by_entity.(entity) <- d :: st.by_entity.(entity);
       changes := Degraded entity :: !changes)
  done;
  List.rev !changes
