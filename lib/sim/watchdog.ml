(* Deadline-watchdog policy and per-task intervention bookkeeping.

   This module is pure bookkeeping: the actual supervision pass
   (projection, hedged swaps, early shedding) lives in Engine so it can
   reach the live flow state; everything here is the policy surface the
   CLI parses and the budget/backoff arithmetic the engine consults. *)

module Table = S3_util.Table

type config = {
  slack : float;
  max_swaps : int;
  backoff : float;
}

let default = { slack = 0.5; max_swaps = 3; backoff = 1. }

let v ?(slack = default.slack) ?(max_swaps = default.max_swaps)
    ?(backoff = default.backoff) () =
  if (not (Float.is_finite slack)) || slack < 0. then
    invalid_arg "Watchdog.v: slack must be finite and >= 0";
  if max_swaps < 0 then invalid_arg "Watchdog.v: max-swaps must be >= 0";
  if (not (Float.is_finite backoff)) || backoff <= 0. then
    invalid_arg "Watchdog.v: backoff must be finite and > 0";
  { slack; max_swaps; backoff }

let to_string c =
  Printf.sprintf "slack=%s,max-swaps=%d,backoff=%s" (Table.fmt_exact c.slack)
    c.max_swaps (Table.fmt_exact c.backoff)

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error ("watchdog " ^ m)) fmt in
  let items =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun item -> item <> "")
  in
  let rec go c = function
    | [] -> (
      match v ~slack:c.slack ~max_swaps:c.max_swaps ~backoff:c.backoff () with
      | c -> Ok c
      | exception Invalid_argument m -> Error m)
    | "default" :: rest -> go default rest
    | item :: rest -> (
      match String.index_opt item '=' with
      | None ->
        err "%S: expected KEY=VALUE with KEY one of slack, max-swaps, backoff"
          item
      | Some eq -> (
        let key =
          String.lowercase_ascii (String.trim (String.sub item 0 eq))
        in
        let value =
          String.trim (String.sub item (eq + 1) (String.length item - eq - 1))
        in
        match key with
        | "slack" -> (
          match float_of_string_opt value with
          | Some f -> go { c with slack = f } rest
          | None -> err "slack: %S is not a number" value)
        | "max-swaps" | "max_swaps" -> (
          match int_of_string_opt value with
          | Some n -> go { c with max_swaps = n } rest
          | None -> err "max-swaps: %S is not an integer" value)
        | "backoff" -> (
          match float_of_string_opt value with
          | Some f -> go { c with backoff = f } rest
          | None -> err "backoff: %S is not a number" value)
        | _ ->
          err "%S: unknown key %S (expected slack, max-swaps or backoff)" item
            key))
  in
  go default items

(* ---- per-task intervention state ---- *)

type tstate = {
  mutable swaps : int;
  mutable interventions : int;
  mutable next_allowed : float;
  mutable abandoned : int list;
}

let fresh () =
  { swaps = 0; interventions = 0; next_allowed = neg_infinity; abandoned = [] }

let can_intervene c st ~now =
  st.swaps < c.max_swaps && now >= st.next_allowed -. 1e-9

let note_intervention c st ~now ~replaced =
  st.swaps <- st.swaps + replaced;
  st.interventions <- st.interventions + 1;
  (* Cap the doubling exponent so the gap saturates instead of
     overflowing once a task has been intervened on ~30 times. *)
  let doubling = float_of_int (1 lsl min (st.interventions - 1) 30) in
  st.next_allowed <- now +. (c.backoff *. doubling)

let abandon st source = st.abandoned <- source :: st.abandoned
