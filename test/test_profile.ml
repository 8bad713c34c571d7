(* Workload profiles: spec-grammar round-trips, seeded determinism,
   scaling laws and rejection of malformed specs. The QCheck suites
   sweep every named profile, so all six are exercised here. *)

module Profile = S3_workload.Profile
module Generator = S3_workload.Generator
module Task = S3_workload.Task
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case
let topo () = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.

let find name = Result.map (fun s -> s.Profile.profile) (Profile.of_string name)

let profile name =
  match find name with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let all = List.map profile Profile.names

let spec ?(scale = 1.) ?tasks p = { Profile.profile = p; scale; tasks }

(* [Profile.generate]'s stream is [Generator.generate_mixed]'s at the
   profile's rate times the scale, over [mix]. *)
let generated_as_mixed ?code ~mix seed s =
  let p = s.Profile.profile in
  let direct = Profile.generate ?code (Prng.create seed) (topo ()) s in
  let mixed =
    Generator.generate_mixed (Prng.create seed) (topo ())
      ~num_tasks:(Profile.task_count ~default:200 s)
      ~arrival_rate:(p.Profile.arrival_rate *. s.Profile.scale)
      ~chunk_size_mb:p.Profile.chunk_size_mb ~deadline_jitter:p.Profile.deadline_jitter
      ~profiles:mix ()
  in
  direct = mixed

(* The code override: every coded entry of the mix re-coded, in
   place, single-source entries untouched. *)
let recode code (mix : Generator.kind_profile list) =
  List.map
    (fun (kp : Generator.kind_profile) ->
      match kp.Generator.profile_code with
      | None -> kp
      | Some _ -> { kp with Generator.profile_code = Some code })
    mix

(* ---- unit cases ---- *)

let test_find () =
  Alcotest.(check int) "six profiles" 6 (List.length Profile.names);
  List.iter
    (fun name ->
      match find name with
      | Ok p -> Alcotest.(check string) "found by name" name p.Profile.name
      | Error e -> Alcotest.fail e)
    Profile.names;
  (match find "DB-OLTP" with
   | Ok p -> Alcotest.(check string) "case-insensitive" "db-oltp" p.Profile.name
   | Error e -> Alcotest.fail e);
  (match find "nope" with
   | Ok _ -> Alcotest.fail "unknown name accepted"
   | Error e -> Alcotest.(check bool) "error names the options" true
                  (String.length e > 0))

let test_parse_variants () =
  let ok spec = match Profile.of_string spec with
    | Ok s -> s
    | Error e -> Alcotest.fail (spec ^ ": " ^ e)
  in
  let s = ok "db-oltp" in
  Alcotest.(check string) "bare name" "db-oltp" s.Profile.profile.Profile.name;
  (* lint: allow float-eq — exact parse round-trip of a spec literal *)
  Alcotest.(check bool) "default scale" true (Float.equal s.Profile.scale 1.);
  Alcotest.(check bool) "no tasks" true (s.Profile.tasks = None);
  let s = ok " scale=2.5 , profile=mixed-70-30 , tasks=80 " in
  Alcotest.(check string) "keys in any order" "mixed-70-30" s.Profile.profile.Profile.name;
  (* lint: allow float-eq — exact parse round-trip of a spec literal *)
  Alcotest.(check bool) "scale read" true (Float.equal s.Profile.scale 2.5);
  Alcotest.(check bool) "tasks read" true (s.Profile.tasks = Some 80);
  Alcotest.(check int) "task_count uses spec" 80 (Profile.task_count ~default:7 s);
  Alcotest.(check int) "task_count falls back" 7
    (Profile.task_count ~default:7 (ok "db-oltp"))

let malformed =
  [ ""; "   "; "nope"; "profile=nope"; "profile="; "scale=2";
    "db-oltp,scale=0"; "db-oltp,scale=-1"; "db-oltp,scale=abc"; "db-oltp,scale=nan";
    "db-oltp,scale=inf"; "db-oltp,tasks=-3"; "db-oltp,tasks=x"; "db-oltp,bogus=1";
    "db-oltp,profile=mixed-70-30"; "db-oltp,mixed-70-30" ]

let test_rejection () =
  List.iter
    (fun spec ->
      match Profile.of_string spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "malformed spec %S accepted" spec)
      | Error e ->
        Alcotest.(check bool) "one-line error" false (String.contains e '\n'))
    malformed

let test_compile_mix () =
  let p = profile "app-server" in
  Alcotest.(check bool) "generated from the re-coded mix" true
    (generated_as_mixed ~code:(12, 8) ~mix:(recode (12, 8) p.Profile.mix) 3
       (spec ~tasks:50 p));
  Alcotest.check_raises "bad code" (Invalid_argument "Profile.compile_mix: bad (n, k)")
    (fun () -> ignore (Profile.generate ~code:(4, 6) (Prng.create 1) (topo ()) (spec p)))

(* ---- properties ---- *)

let qcheck =
  let open QCheck in
  let spec_arb =
    let gen =
      Gen.map3
        (fun p scale tasks -> spec ~scale ?tasks p)
        (Gen.oneofl all)
        (Gen.map (fun x -> Float.of_int (1 + x) /. 16.) (Gen.int_bound 127))
        (Gen.opt (Gen.int_bound 500))
    in
    make ~print:Profile.to_string gen
  in
  let seed = int_range 0 1_000_000 in
  [ Test.make ~name:"spec print/parse round-trips exactly" ~count:300 spec_arb (fun s ->
        match Profile.of_string (Profile.to_string s) with
        | Error _ -> false
        | Ok s' ->
          String.equal s'.Profile.profile.Profile.name s.Profile.profile.Profile.name
          && Float.equal s'.Profile.scale s.Profile.scale
          && s'.Profile.tasks = s.Profile.tasks
          && String.equal (Profile.to_string s') (Profile.to_string s));
    Test.make ~name:"same seed generates the identical task stream" ~count:60
      (pair (oneofl all) seed) (fun (p, seed) ->
        let s = spec ~scale:1.5 ~tasks:40 p in
        let a = Profile.generate (Prng.create seed) (topo ()) s in
        let b = Profile.generate (Prng.create seed) (topo ()) s in
        a = b && List.length a = 40);
    Test.make ~name:"every profile's volume law: volume = 8 x chunk MB" ~count:60
      (pair (oneofl all) seed) (fun (p, seed) ->
        let s = spec ~tasks:30 p in
        let tasks = Profile.generate (Prng.create seed) (topo ()) s in
        List.for_all
          (fun (t : Task.t) ->
            (* lint: allow float-eq — generator computes this exact expression *)
            Float.equal t.Task.volume (8. *. p.Profile.chunk_size_mb))
          tasks);
    Test.make ~name:"arrival-rate scaling law: arrivals contract by 1/scale" ~count:60
      (pair (oneofl all) seed) (fun (p, seed) ->
        (* Scaling multiplies the Poisson rate and nothing else: the
           PRNG streams align draw for draw, so every arrival divides
           by the scale and every deadline offset is preserved, both to
           float round-off (absolute sums and the a + x - a dance
           re-round differently at different magnitudes). *)
        let scale = 4. in
        let base = Profile.generate (Prng.create seed) (topo ()) (spec ~tasks:25 p) in
        let fast = Profile.generate (Prng.create seed) (topo ()) (spec ~scale ~tasks:25 p) in
        List.for_all2
          (fun (b : Task.t) (f : Task.t) ->
            let b_off = b.Task.deadline -. b.Task.arrival in
            let f_off = f.Task.deadline -. f.Task.arrival in
            Float.abs (f.Task.arrival -. (b.Task.arrival /. scale))
            <= 1e-9 *. Float.max 1. b.Task.arrival
            && Float.abs (f_off -. b_off) <= 1e-9 *. Float.max 1. b_off
            && b.Task.k = f.Task.k)
          base fast);
    Test.make ~name:"compiled arrival rate is profile rate x scale" ~count:100
      (pair spec_arb seed) (fun (s, seed) ->
        generated_as_mixed ~mix:s.Profile.profile.Profile.mix seed s);
    Test.make ~name:"code override re-codes every coded entry" ~count:100
      (triple (oneofl all) (oneofl [ (6, 4); (9, 6); (12, 8); (14, 10) ]) seed)
      (fun (p, code, seed) ->
        generated_as_mixed ~code ~mix:(recode code p.Profile.mix) seed (spec ~tasks:30 p))
  ]

let tests =
  ( "profile",
    [ tc "find and names" `Quick test_find;
      tc "parse variants" `Quick test_parse_variants;
      tc "malformed specs rejected" `Quick test_rejection;
      tc "compile_mix override" `Quick test_compile_mix
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
