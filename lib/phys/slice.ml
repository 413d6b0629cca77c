type t = {
  name : string;
  mutable reservation : float;
  mutable realtime : bool;
}

let create ?(reservation = 0.0) ?(realtime = false) name =
  if reservation < 0.0 || reservation > 1.0 then
    invalid_arg "Slice.create: reservation out of [0,1]";
  { name; reservation; realtime }

let default_share name = create name
let pl_vini name = create ~reservation:Calibration.default_reservation ~realtime:true name
