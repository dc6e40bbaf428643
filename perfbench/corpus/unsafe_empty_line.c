/* fixwrites error population, item 1: on an empty input line
   strlen(line) == 0 and the newline-stripping write lands at
   line[-1]. */

void remove_newline(char *line)
    requires (is_nullt(line))
    modifies (is_nullt(line)), (strlen(line))
    ensures (is_nullt(line))
{
    int n;

    n = strlen(line);
    line[n - 1] = '\0';
}
