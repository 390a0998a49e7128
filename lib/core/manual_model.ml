type costs = {
  vm_creation_min : float;
  interface_mapping_min : float;
  routing_config_min : float;
}

let paper_costs =
  { vm_creation_min = 5.; interface_mapping_min = 2.; routing_config_min = 8. }

let per_switch_minutes c =
  c.vm_creation_min +. c.interface_mapping_min +. c.routing_config_min

let total_minutes c ~switches = per_switch_minutes c *. float_of_int switches

let pp_duration ppf minutes =
  if minutes < 60. then Format.fprintf ppf "%.1fm" minutes
  else if minutes < 24. *. 60. then
    Format.fprintf ppf "%dh %02.0fm"
      (int_of_float (minutes /. 60.))
      (Float.rem minutes 60.)
  else
    Format.fprintf ppf "%dd %dh"
      (int_of_float (minutes /. (24. *. 60.)))
      (int_of_float (Float.rem (minutes /. 60.) 24.))
