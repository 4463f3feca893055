let page_size = 4096
let page_shift = 12
let levels = 4
let index_bits = 9
let fanout = 1 lsl index_bits

(* 0x7000_0000_0000: near the top of the 47-bit user half. *)
let msnap_base = 0x7000 lsl 32

let vpn_of_va va = va lsr page_shift
let va_of_vpn vpn = vpn lsl page_shift
let page_offset va = va land (page_size - 1)
let page_align_down va = va land lnot (page_size - 1)
let page_align_up va = (va + page_size - 1) land lnot (page_size - 1)

let pages_spanned ~off ~len =
  if len = 0 then 0
  else (vpn_of_va (off + len - 1)) - vpn_of_va off + 1

let index ~level vpn = (vpn lsr (level * index_bits)) land (fanout - 1)
