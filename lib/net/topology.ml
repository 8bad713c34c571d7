type entity_kind =
  | Server_nic
  | Tor_uplink
  | Edge_switch
  | Agg_switch
  | Core_switch
  | Bcube_switch
  | Leaf_switch
  | Spine_switch

type entity = {
  id : int;
  kind : entity_kind;
  capacity : float;
}

type t = {
  name : string;
  nservers : int;
  nracks : int;
  rack_of : int -> int;
  entities : entity array;
  server_entity : int array;  (* server -> entity id of its NIC *)
  route : src:int -> dst:int -> int list;
  route_cache : int array option array Lazy.t;
      (* flat [src * nservers + dst] memo of routes as immutable int
         arrays; lazy so topologies that never route pay nothing *)
  rack_servers : int list array Lazy.t;  (* rack -> its servers, ascending *)
}

(* Shared constructor: wires the derived caches so every topology gets
   flat route memoization and precomputed rack membership. *)
let v ~name ~nservers ~nracks ~rack_of ~entities ~server_entity ~route =
  let route_cache = lazy (Array.make (nservers * nservers) None) in
  let rack_servers =
    lazy
      (let a = Array.make nracks [] in
       for s = nservers - 1 downto 0 do
         a.(rack_of s) <- s :: a.(rack_of s)
       done;
       a)
  in
  { name; nservers; nracks; rack_of; entities; server_entity; route; route_cache;
    rack_servers }

let name t = t.name
let servers t = t.nservers
let racks t = t.nracks

let check_server t s fn =
  if s < 0 || s >= t.nservers then
    invalid_arg (Printf.sprintf "Topology.%s: server %d out of range" fn s)

let rack_of t s =
  check_server t s "rack_of";
  t.rack_of s

let servers_in_rack t r =
  if r < 0 || r >= t.nracks then invalid_arg "Topology.servers_in_rack: bad rack";
  (Lazy.force t.rack_servers).(r)

let entities t = t.entities

let entity t id =
  if id < 0 || id >= Array.length t.entities then
    invalid_arg "Topology.entity: id out of range";
  t.entities.(id)

let server_entity t s =
  check_server t s "server_entity";
  t.server_entity.(s)

let route t ~src ~dst =
  check_server t src "route";
  check_server t dst "route";
  if src = dst then [] else t.route ~src ~dst

let route_array t ~src ~dst =
  check_server t src "route_array";
  check_server t dst "route_array";
  let cache = Lazy.force t.route_cache in
  let idx = (src * t.nservers) + dst in
  match cache.(idx) with
  | Some r -> r
  | None ->
    let r = if src = dst then [||] else Array.of_list (t.route ~src ~dst) in
    cache.(idx) <- Some r;
    r

(* Deterministic pair hash for ECMP-style path choice; SplitMix-style
   mixing keeps path selection well spread without a PRNG dependency. *)
let pair_hash a b =
  let z = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  let z = (z lxor (z lsr 15)) * 0x2545F491 in
  abs (z lxor (z lsr 13))

(* Link capacities must be finite and positive; spelled so that NaN
   fails the test instead of slipping past a [<= 0.] check. *)
let check_capacities fn ~cst ~cta =
  let ok c = Float.is_finite c && c > 0. in
  if not (ok cst && ok cta) then invalid_arg (fn ^ ": capacities")

let two_tier ~racks ~servers_per_rack ~cst ~cta =
  if racks <= 0 || servers_per_rack <= 0 then invalid_arg "Topology.two_tier: sizes";
  check_capacities "Topology.two_tier" ~cst ~cta;
  let nservers = racks * servers_per_rack in
  let server_ids = Array.init nservers (fun s -> s) in
  let tor_ids = Array.init racks (fun r -> nservers + r) in
  let entities =
    Array.init
      (nservers + racks)
      (fun id ->
        if id < nservers then { id; kind = Server_nic; capacity = cst }
        else { id; kind = Tor_uplink; capacity = cta })
  in
  let rack_of s = s / servers_per_rack in
  let route ~src ~dst =
    let rs = rack_of src and rd = rack_of dst in
    if rs = rd then [ server_ids.(src); server_ids.(dst) ]
    else [ server_ids.(src); tor_ids.(rs); tor_ids.(rd); server_ids.(dst) ]
  in
  v
    ~name:(Printf.sprintf "two_tier(%dx%d)" racks servers_per_rack)
    ~nservers ~nracks:racks ~rack_of ~entities ~server_entity:server_ids ~route

let fat_tree ~k ~cst ~cta =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even, >= 2";
  check_capacities "Topology.fat_tree" ~cst ~cta;
  let half = k / 2 in
  let nservers = k * half * half in
  let nedge = k * half and nagg = k * half and ncore = half * half in
  (* Entity layout: servers, then edge, agg, core switches. *)
  let edge_base = nservers in
  let agg_base = edge_base + nedge in
  let core_base = agg_base + nagg in
  let entities =
    Array.init
      (core_base + ncore)
      (fun id ->
        if id < nservers then { id; kind = Server_nic; capacity = cst }
        else if id < agg_base then { id; kind = Edge_switch; capacity = cta }
        else if id < core_base then { id; kind = Agg_switch; capacity = cta }
        else { id; kind = Core_switch; capacity = cta })
  in
  let pod_of s = s / (half * half) in
  let edge_of s = s / half in  (* global edge index *)
  let route ~src ~dst =
    let se = edge_of src and de = edge_of dst in
    if se = de then [ src; edge_base + se; dst ]
    else begin
      let sp = pod_of src and dp = pod_of dst in
      if sp = dp then begin
        let agg = (sp * half) + (pair_hash src dst mod half) in
        [ src; edge_base + se; agg_base + agg; edge_base + de; dst ]
      end
      else begin
        let h = pair_hash src dst in
        let agg_slot = h mod half in
        let core = (agg_slot * half) + (h / half mod half) in
        [ src;
          edge_base + se;
          agg_base + (sp * half) + agg_slot;
          core_base + core;
          agg_base + (dp * half) + agg_slot;
          edge_base + de;
          dst
        ]
      end
    end
  in
  v
    ~name:(Printf.sprintf "fat_tree(k=%d)" k)
    ~nservers ~nracks:k ~rack_of:pod_of ~entities
    ~server_entity:(Array.init nservers Fun.id) ~route

let leaf_spine ~leaves ~spines ~servers_per_leaf ~cst ~cta =
  if leaves <= 0 || spines <= 0 || servers_per_leaf <= 0 then
    invalid_arg "Topology.leaf_spine: sizes";
  check_capacities "Topology.leaf_spine" ~cst ~cta;
  let nservers = leaves * servers_per_leaf in
  let leaf_base = nservers in
  let spine_base = nservers + leaves in
  let entities =
    Array.init
      (nservers + leaves + spines)
      (fun id ->
        if id < nservers then { id; kind = Server_nic; capacity = cst }
        else if id < spine_base then { id; kind = Leaf_switch; capacity = cta }
        else { id; kind = Spine_switch; capacity = cta })
  in
  let leaf_of s = s / servers_per_leaf in
  let route ~src ~dst =
    let ls = leaf_of src and ld = leaf_of dst in
    if ls = ld then [ src; leaf_base + ls; dst ]
    else begin
      let spine = pair_hash src dst mod spines in
      [ src; leaf_base + ls; spine_base + spine; leaf_base + ld; dst ]
    end
  in
  v
    ~name:(Printf.sprintf "leaf_spine(%dx%d,%d spines)" leaves servers_per_leaf spines)
    ~nservers ~nracks:leaves ~rack_of:leaf_of ~entities
    ~server_entity:(Array.init nservers Fun.id) ~route

let bcube ~ports ~levels ~cst ~cta =
  if ports < 2 then invalid_arg "Topology.bcube: ports >= 2";
  if levels < 1 then invalid_arg "Topology.bcube: levels >= 1";
  check_capacities "Topology.bcube" ~cst ~cta;
  let n = ports in
  let nservers =
    let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
    pow 1 levels
  in
  let switches_per_level = nservers / n in
  let nswitches = levels * switches_per_level in
  let entities =
    Array.init
      (nservers + nswitches)
      (fun id ->
        if id < nservers then { id; kind = Server_nic; capacity = cst }
        else { id; kind = Bcube_switch; capacity = cta })
  in
  let digit s level =
    let rec go v i = if i = 0 then v mod n else go (v / n) (i - 1) in
    go s level
  in
  (* The level-l switch of server s groups the servers agreeing with s
     on every digit except digit l: index by s with digit l removed. *)
  let switch_of s level =
    let rec strip v i acc mult =
      if i >= levels then acc
      else if i = level then strip (v / n) (i + 1) acc mult
      else strip (v / n) (i + 1) (acc + (v mod n * mult)) (mult * n)
    in
    nservers + (level * switches_per_level) + strip s 0 0 1
  in
  let set_digit s level d =
    let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
    let m = pow 1 level in
    s + ((d - digit s level) * m)
  in
  let route ~src ~dst =
    (* BCubeRouting: correct differing digits from the highest level
       down, hopping through one switch and one intermediate server per
       digit. Every traversed server NIC is consumed (server-centric
       forwarding). *)
    let rec go cur acc level =
      if level < 0 then List.rev (cur :: acc)
      else if digit cur level = digit dst level then go cur acc (level - 1)
      else begin
        let next = set_digit cur level (digit dst level) in
        go next (switch_of cur level :: cur :: acc) (level - 1)
      end
    in
    go src [] (levels - 1)
  in
  v
    ~name:(Printf.sprintf "bcube(n=%d,k=%d)" ports (levels - 1))
    ~nservers ~nracks:switches_per_level
    ~rack_of:(fun s -> s / n)
    ~entities
    ~server_entity:(Array.init nservers Fun.id)
    ~route
