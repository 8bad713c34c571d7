(* In-memory span recorder for the traced pass.

   Spans are taken from outside the program: the benchmark wraps its
   calls into a layer's public functions (the algorithm closures, the
   engine's [on_event] hook, Phase II/III entry points, codec calls)
   and records [start, stop) on the monotonic clock. Layers called by
   the engine never nest inside each other, so a span's self time is
   its duration. Every span's parent is the pass root (id 0); [event]
   is the index of the scheduling event the span belongs to, which
   groups one event's spans the way a request id would. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  mutable n : int;
  mutable start : int array;
  mutable stop : int array;
  mutable event : int array;
}

type t = {
  mutable layers : layer list;  (* newest first *)
  mutable current_event : int;
}

let create () = { layers = []; current_event = 0 }

let layer t name =
  match List.find_opt (fun l -> String.equal l.name name) t.layers with
  | Some l -> l
  | None ->
    let l = { name; n = 0; start = [||]; stop = [||]; event = [||] } in
    t.layers <- l :: t.layers;
    l

let grow a n = Array.append a (Array.make (max 64 n) 0)

let record t l start stop =
  if l.n = Array.length l.start then begin
    l.start <- grow l.start l.n;
    l.stop <- grow l.stop l.n;
    l.event <- grow l.event l.n
  end;
  l.start.(l.n) <- start;
  l.stop.(l.n) <- stop;
  l.event.(l.n) <- t.current_event;
  l.n <- l.n + 1

let wrap t l f =
  let s = now_ns () in
  Fun.protect ~finally:(fun () -> record t l s (now_ns ())) f

let next_event t = t.current_event <- t.current_event + 1

let calls l = l.n

let durations_ns l = Array.init l.n (fun i -> l.stop.(i) - l.start.(i))

let total_s l = float_of_int (Array.fold_left ( + ) 0 (durations_ns l)) *. 1e-9

let find t name = List.find_opt (fun l -> String.equal l.name name) t.layers

(* JSONL, one span per line, oldest layer first and spans in record
   order within a layer; the pass root is line 0. *)
let write_jsonl t ~path ~root_start ~root_stop =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"id\":0,\"parent\":null,\"name\":\"pass\",\"start_ns\":%d,\"end_ns\":%d}\n"
        root_start root_stop;
      let id = ref 0 in
      List.iter
        (fun l ->
          for i = 0 to l.n - 1 do
            incr id;
            Printf.fprintf oc
              "{\"id\":%d,\"parent\":0,\"name\":\"%s\",\"event\":%d,\"start_ns\":%d,\
               \"end_ns\":%d}\n"
              !id l.name l.event.(i) l.start.(i) l.stop.(i)
          done)
        (List.rev t.layers))
