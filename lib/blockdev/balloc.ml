exception Out_of_space

type t = {
  total : int;
  reserved : int;
  bitmap : Bytes.t; (* 1 bit per block; 1 = allocated *)
  mutable cursor : int;
  mutable nfree : int;
}

let get_bit t i =
  Char.code (Bytes.get t.bitmap (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t i v =
  let byte = Char.code (Bytes.get t.bitmap (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bitmap (i lsr 3) (Char.chr byte)

let create ~total_blocks ~reserved =
  assert (reserved >= 0 && reserved <= total_blocks);
  let t =
    {
      total = total_blocks;
      reserved;
      bitmap = Bytes.make ((total_blocks + 7) / 8) '\000';
      cursor = reserved;
      nfree = total_blocks - reserved;
    }
  in
  for i = 0 to reserved - 1 do
    set_bit t i true
  done;
  t

let is_allocated t i = get_bit t i

let mark_allocated t i =
  if not (get_bit t i) then begin
    set_bit t i true;
    t.nfree <- t.nfree - 1
  end

let free_blocks t = t.nfree

(* Find [n] contiguous free blocks in [from, limit); None if no run. *)
let find_run t ~from ~limit n =
  let i = ref from in
  let result = ref None in
  while !result = None && !i + n <= limit do
    let j = ref 0 in
    while !j < n && not (get_bit t (!i + !j)) do
      incr j
    done;
    if !j = n then result := Some !i else i := !i + !j + 1
  done;
  !result

let take t i =
  assert (not (get_bit t i));
  set_bit t i true;
  t.nfree <- t.nfree - 1

let alloc_run t n =
  if n = 0 then []
  else if n > t.nfree then raise Out_of_space
  else begin
    let run =
      match find_run t ~from:t.cursor ~limit:t.total n with
      | Some i -> Some i
      | None -> find_run t ~from:t.reserved ~limit:t.cursor n
    in
    match run with
    | Some start ->
      let blocks = List.init n (fun k -> start + k) in
      List.iter (take t) blocks;
      t.cursor <- start + n;
      if t.cursor >= t.total then t.cursor <- t.reserved;
      blocks
    | None ->
      (* Fragmented: fall back to scattered singles from the cursor. *)
      let acc = ref [] in
      let found = ref 0 in
      let scan from limit =
        let i = ref from in
        while !found < n && !i < limit do
          if not (get_bit t !i) then begin
            take t !i;
            acc := !i :: !acc;
            incr found
          end;
          incr i
        done
      in
      scan t.cursor t.total;
      scan t.reserved t.cursor;
      if !found < n then begin
        List.iter
          (fun b ->
            set_bit t b false;
            t.nfree <- t.nfree + 1)
          !acc;
        raise Out_of_space
      end;
      List.rev !acc
  end

let free_now t blocks =
  List.iter
    (fun i ->
      if get_bit t i then begin
        set_bit t i false;
        t.nfree <- t.nfree + 1
      end)
    blocks
