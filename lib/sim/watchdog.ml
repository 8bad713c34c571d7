(* Deadline-watchdog policy and per-task intervention bookkeeping.

   This module is pure bookkeeping: the actual supervision pass
   (projection, hedged swaps, early shedding) lives in Engine so it can
   reach the live flow state; everything here is the policy surface the
   CLI parses and the budget/backoff arithmetic the engine consults. *)

module Spec = S3_util.Spec
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
  Spec.parse ~what:"watchdog" ~default
    ~finish:(fun c -> v ~slack:c.slack ~max_swaps:c.max_swaps ~backoff:c.backoff ())
    [ Spec.float "slack" (fun c slack -> { c with slack });
      Spec.int "max-swaps" ~aliases:[ "max_swaps" ] (fun c max_swaps -> { c with max_swaps });
      Spec.float "backoff" (fun c backoff -> { c with backoff })
    ]
    s

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
