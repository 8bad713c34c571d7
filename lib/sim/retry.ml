(* Transfer retry policy and per-flow stall bookkeeping.

   Pure policy surface, same shape as Watchdog: the engine decides
   which flows are stalled (zero rate through a degraded entity) and
   performs the actual retries/re-homes; this module owns the CLI
   grammar and the timeout/backoff arithmetic. Distinct from the
   watchdog's swap budget: retries are per-flow and react to transient
   link degradation, swaps are per-task and react to projected deadline
   misses. *)

module Spec = S3_util.Spec
module Table = S3_util.Table

type config = {
  retries : int;
  timeout : float;
  backoff : float;
  resume : bool;
}

let default = { retries = 2; timeout = 1.; backoff = 2.; resume = true }

let v ?(retries = default.retries) ?(timeout = default.timeout)
    ?(backoff = default.backoff) ?(resume = default.resume) () =
  if retries < 0 then invalid_arg "Retry.v: retries must be >= 0";
  if (not (Float.is_finite timeout)) || timeout <= 0. then
    invalid_arg "Retry.v: timeout must be finite and > 0";
  if (not (Float.is_finite backoff)) || backoff < 1. then
    invalid_arg "Retry.v: backoff must be finite and >= 1";
  { retries; timeout; backoff; resume }

let to_string c =
  Printf.sprintf "retries=%d,timeout=%s,backoff=%s,resume=%b" c.retries
    (Table.fmt_exact c.timeout) (Table.fmt_exact c.backoff) c.resume

let of_string s =
  Spec.parse ~what:"retry" ~default
    ~finish:(fun c ->
      v ~retries:c.retries ~timeout:c.timeout ~backoff:c.backoff ~resume:c.resume ())
    [ Spec.int "retries" (fun c retries -> { c with retries });
      Spec.float "timeout" (fun c timeout -> { c with timeout });
      Spec.float "backoff" (fun c backoff -> { c with backoff });
      Spec.bool "resume" (fun c resume -> { c with resume })
    ]
    s

(* ---- per-flow stall state ---- *)

type fstate = {
  mutable attempts : int;
  mutable since : float;  (* neg_infinity = not stalled *)
  mutable given_up : bool;
}

let fresh () = { attempts = 0; since = neg_infinity; given_up = false }
let stalled st = Float.is_finite st.since

let mark_stalled st ~now = if not (stalled st) then st.since <- now

let clear st =
  st.since <- neg_infinity;
  st.attempts <- 0;
  st.given_up <- false

let next_deadline c st =
  if st.given_up || not (stalled st) then infinity
  else st.since +. (c.timeout *. (c.backoff ** float_of_int st.attempts))

let note_retry st ~now =
  st.attempts <- st.attempts + 1;
  st.since <- now

let exhausted c st = st.attempts >= c.retries
let give_up st = st.given_up <- true
