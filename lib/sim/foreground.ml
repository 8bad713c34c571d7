module Prng = S3_util.Prng
module Topology = S3_net.Topology

type config = {
  max_frac : float;
  change_interval : float;
}

let none = { max_frac = 0.; change_interval = infinity }

let uniform ~max_frac =
  if not (max_frac >= 0. && max_frac < 1.) then
    invalid_arg "Foreground.uniform: max_frac in [0,1)";
  { max_frac; change_interval = 5. }

type t = {
  g : Prng.t;
  topo : Topology.t;
  config : config;
  fractions : float array;
  mutable next : float;  (* absolute time of next redraw *)
  mutable generation : int;  (* bumped on every redraw *)
}

let redraw t =
  t.generation <- t.generation + 1;
  for e = 0 to Array.length t.fractions - 1 do
    t.fractions.(e) <- (if t.config.max_frac <= 0. then 0. else Prng.float t.g t.config.max_frac)
  done

let create g topo config =
  if not (config.max_frac >= 0. && config.max_frac < 1.) then
    invalid_arg "Foreground.create: max_frac must be in [0,1)";
  if not (config.change_interval > 0.) then invalid_arg "Foreground.create: change_interval";
  let static = config.max_frac <= 0. || not (Float.is_finite config.change_interval) in
  let t =
    { g;
      topo;
      config;
      fractions = Array.make (Array.length (Topology.entities topo)) 0.;
      next = (if static then infinity else config.change_interval);
      generation = 0
    }
  in
  if config.max_frac > 0. then redraw t;
  t

let fraction t e =
  if e < 0 || e >= Array.length t.fractions then invalid_arg "Foreground.fraction: entity";
  t.fractions.(e)

let available t e =
  let raw = (Topology.entity t.topo e).Topology.capacity in
  raw *. (1. -. fraction t e)

let next_change t = t.next

let generation t = t.generation

let advance t time =
  while t.next <= time do
    redraw t;
    t.next <- t.next +. t.config.change_interval
  done
