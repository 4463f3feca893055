type node =
  | Leaf of int array
  | Inner of node option array

type t = { root : node option array }

let create () = { root = Array.make Addr.fanout None }

let lookup t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    match children.(i) with
    | None -> Pte.empty
    | Some (Leaf slots) -> slots.(Addr.index ~level:0 vpn)
    | Some (Inner ch) -> go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let walk t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    if level = 1 then begin
      let slots =
        match children.(i) with
        | Some (Leaf slots) -> slots
        | Some (Inner _) -> assert false
        | None ->
          let slots = Array.make Addr.fanout Pte.empty in
          children.(i) <- Some (Leaf slots);
          slots
      in
      Ptloc.make slots (Addr.index ~level:0 vpn)
    end
    else
      let ch =
        match children.(i) with
        | Some (Inner ch) -> ch
        | Some (Leaf _) -> assert false
        | None ->
          let ch = Array.make Addr.fanout None in
          children.(i) <- Some (Inner ch);
          ch
      in
      go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let find_loc t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    match children.(i) with
    | None -> None
    | Some (Leaf slots) -> Some (Ptloc.make slots (Addr.index ~level:0 vpn))
    | Some (Inner ch) -> go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let set t vpn pte = Ptloc.set (walk t vpn) pte

(* The one window-clipping descent. Only the child indices that overlap
   [first, last] are visited at each level, so an absent subtree costs
   nothing and a leaf is handed over once with its clipped slot range. *)
let iter_leaves t ~vpn ~n ~f =
  let first = vpn and last = vpn + n - 1 in
  let rec go level children base visited =
    let shift = level * Addr.index_bits in
    let i0 = if first > base then (first - base) lsr shift else 0 in
    let i1 = min (Addr.fanout - 1) ((last - base) lsr shift) in
    let visited = ref visited in
    for i = i0 to i1 do
      let lo = base + (i lsl shift) in
      match children.(i) with
      | None -> ()
      | Some (Leaf slots) ->
        let s0 = max 0 (first - lo) in
        let s1 = min (Addr.fanout - 1) (last - lo) in
        visited := !visited + (s1 - s0 + 1);
        f slots lo s0 s1
      | Some (Inner ch) -> visited := go (level - 1) ch lo !visited
    done;
    !visited
  in
  if n <= 0 || last < 0 then 0 else go (Addr.levels - 1) t.root 0 0
