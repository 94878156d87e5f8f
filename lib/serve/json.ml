include Edge_obs.Json
