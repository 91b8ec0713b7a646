package cluster

// ForceTokens lets the external test package force the token count.
var ForceTokens = forceTokens
