(* Open-addressed hash table with non-negative int keys and a flat
   payload array. The hot-path replacement for [(int, _) Hashtbl.t]:
   lookup allocates nothing (a miss returns the [absent] sentinel
   supplied at creation instead of an [option]), insertion only
   allocates when the table grows, and the storage is reused across
   [clear]s.

   Linear probing over a power-of-two capacity; key slots use -1 for
   "never used" and -2 for "deleted" (tombstone), so client keys must
   be >= 0. Iteration order is a host-side artifact of the hash layout
   and must never feed a simulated value. *)

type 'a t = {
  mutable keys : int array; (* -1 empty, -2 tombstone, else the key *)
  mutable vals : 'a array;
  mutable len : int; (* live entries *)
  mutable used : int; (* live entries + tombstones *)
  absent : 'a; (* returned on miss; seeds the payload array *)
}

let k_empty = -1
let k_tomb = -2

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let create ?(initial = 16) ~absent () =
  let cap = pow2_at_least (max 8 initial) 8 in
  {
    keys = Array.make cap k_empty;
    vals = Array.make cap absent;
    len = 0;
    used = 0;
    absent;
  }

let length t = t.len

(* Multiplicative hash: keys are often small dense ints (vpns, rel
   pages), so spread the low bits before masking. *)
let hash k cap_mask = (k * 0x9E3779B1) land cap_mask

(* The probe loops are top-level functions over explicit arguments: a
   local recursive closure would capture [t]/[k] and be allocated on
   every call. *)
let rec probe keys k mask i =
  let kk = Array.unsafe_get keys i in
  if kk = k then i
  else if kk = k_empty then -1
  else probe keys k mask ((i + 1) land mask)

(* Slot holding [k], or -1 if not present. *)
let find_slot t k =
  let mask = Array.length t.keys - 1 in
  probe t.keys k mask (hash k mask)

let mem t k = if k < 0 then false else find_slot t k >= 0

(* Slot handles: [find_slot]'s result stays valid until the next
   mutation of the table and lets a caller split "is it present?" from
   "read/write the payload" without hashing twice or boxing a result. *)
let slot t k = if k < 0 then -1 else find_slot t k
let slot_value t s = Array.unsafe_get t.vals s
let set_slot t s v = Array.unsafe_set t.vals s v

let find t k =
  if k < 0 then t.absent
  else
    let s = find_slot t k in
    if s < 0 then t.absent else Array.unsafe_get t.vals s

let resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let old_cap = Array.length old_keys in
  (* Grow only when at least half the slots are live; otherwise the
     table is mostly tombstones and rehashing in place reclaims them. *)
  let cap = if 2 * t.len >= old_cap then 2 * old_cap else old_cap in
  t.keys <- Array.make cap k_empty;
  t.vals <- Array.make cap t.absent;
  t.used <- t.len;
  let mask = cap - 1 in
  for i = 0 to old_cap - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then begin
      let rec place j =
        if Array.unsafe_get t.keys j = k_empty then begin
          Array.unsafe_set t.keys j k;
          Array.unsafe_set t.vals j (Array.unsafe_get old_vals i)
        end
        else place ((j + 1) land mask)
      in
      place (hash k mask)
    end
  done

let rec insert t k v mask i tomb =
  let kk = Array.unsafe_get t.keys i in
  if kk = k then Array.unsafe_set t.vals i v
  else if kk = k_empty then begin
    let dst = if tomb >= 0 then tomb else i in
    if dst = i then t.used <- t.used + 1;
    Array.unsafe_set t.keys dst k;
    Array.unsafe_set t.vals dst v;
    t.len <- t.len + 1
  end
  else if kk = k_tomb && tomb < 0 then insert t k v mask ((i + 1) land mask) i
  else insert t k v mask ((i + 1) land mask) tomb

let set t k v =
  if k < 0 then invalid_arg "Itab.set: negative key";
  let cap = Array.length t.keys in
  if 4 * (t.used + 1) > 3 * cap then resize t;
  let mask = Array.length t.keys - 1 in
  insert t k v mask (hash k mask) (-1)

(* A removed slot followed by a never-used one can itself become
   never-used: no probe for a live key crosses it, since that probe
   would have to cross the empty successor too. The same holds for each
   tombstone directly before it in turn, so the whole run is reclaimed
   and no tombstone is ever followed by a never-used slot. Removing
   every live key therefore leaves the table as [clear] does, with no
   tombstone left to force a rehash, and tables that hold a few
   short-lived entries (busy locks) never accumulate tombstones. *)
let rec reclaim_run t keys mask i =
  Array.unsafe_set keys i k_empty;
  t.used <- t.used - 1;
  let prev = (i - 1) land mask in
  if Array.unsafe_get keys prev = k_tomb then reclaim_run t keys mask prev

let remove t k =
  if k >= 0 then begin
    let s = find_slot t k in
    if s >= 0 then begin
      let keys = t.keys in
      let mask = Array.length keys - 1 in
      if Array.unsafe_get keys ((s + 1) land mask) = k_empty then
        reclaim_run t keys mask s
      else Array.unsafe_set keys s k_tomb;
      Array.unsafe_set t.vals s t.absent;
      t.len <- t.len - 1
    end
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) k_empty;
  Array.fill t.vals 0 (Array.length t.vals) t.absent;
  t.len <- 0;
  t.used <- 0

(* Host-side only: iteration order depends on the hash layout. *)
let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let k = Array.unsafe_get t.keys i in
    if k >= 0 then f k (Array.unsafe_get t.vals i)
  done
