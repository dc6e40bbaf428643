/* fixwrites error population, item 3: joining two lines into a fixed
   buffer with no relation between the input lengths and LINE_MAX — both
   the strcpy and the strcat can overflow. */

#define LINE_MAX 128

void join_lines(char *first, char *second)
    requires (is_nullt(first) && is_nullt(second))
{
    char joined[LINE_MAX];

    strcpy(joined, first);
    strcat(joined, second);
}
