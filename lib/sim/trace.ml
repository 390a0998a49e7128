let dropped (_ : Rf_obs.Tracer.t) = 0
