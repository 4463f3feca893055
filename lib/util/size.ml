let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp n =
  if n >= 1 lsl 30 && n mod (1 lsl 30) = 0 then Printf.sprintf "%d GiB" (n lsr 30)
  else if n >= 1 lsl 20 && n mod (1 lsl 20) = 0 then Printf.sprintf "%d MiB" (n lsr 20)
  else if n >= 1 lsl 10 && n mod (1 lsl 10) = 0 then Printf.sprintf "%d KiB" (n lsr 10)
  else Printf.sprintf "%d B" n
