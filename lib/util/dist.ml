type kind = Uniform | Pareto of { shape : float; scale : float }
type t = { n : int; kind : kind }

let uniform n =
  assert (n > 0);
  { n; kind = Uniform }

let pareto ?(shape = 0.2) ?scale n =
  assert (n > 0);
  let scale = match scale with Some s -> s | None -> float_of_int n /. 10.0 in
  { n; kind = Pareto { shape; scale } }

let sample t rng =
  match t.kind with
  | Uniform -> Rng.int rng t.n
  | Pareto { shape; scale } ->
    let u = Rng.float rng in
    (* Inverse CDF of the generalized Pareto distribution. *)
    let x =
      if Float.abs shape < 1e-9 then -.scale *. Float.log (1.0 -. u)
      else scale *. (Float.pow (1.0 -. u) (-.shape) -. 1.0) /. shape
    in
    let k = int_of_float x in
    if k < 0 then 0 else if k >= t.n then t.n - 1 else k
